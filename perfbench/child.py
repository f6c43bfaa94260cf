"""One benchmark repetition in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/child.py '<spec as JSON>'

``run.py`` starts this once per repetition and reads the record it prints
as one JSON line.  See ``workloads.execute`` for the spec.
"""
import json
import sys

from workloads import execute

if __name__ == "__main__":
    print(json.dumps(execute(json.loads(sys.argv[1]))))
