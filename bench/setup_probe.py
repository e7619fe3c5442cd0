"""One fresh-process set-up: import raagme and parse every input document.

Usage: python3 setup_probe.py SRC_DIR DOCUMENTS_JSON

The documents (a JSON list of [format, text]) are read before the timer
starts.  The script prints the elapsed seconds of the import plus the
parse, then the median time of a calibration unit measured right after it
in the same process (see calibration.py).
"""

import json
import statistics
import sys
import time

import calibration

UNIT_SAMPLES = 5


def main():
    src, bundle = sys.argv[1:3]
    with open(bundle, encoding="utf-8") as fh:
        documents = json.load(fh)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import raagme  # noqa: F401
    from raagme.formats import parse_presentation
    for fmt, text in documents:
        parse_presentation(text, fmt)
    elapsed = time.perf_counter() - t0
    unit = statistics.median(calibration.unit_seconds() for _ in range(UNIT_SAMPLES))
    print(f"{elapsed:.9f} {unit:.9f}")


if __name__ == "__main__":
    main()
