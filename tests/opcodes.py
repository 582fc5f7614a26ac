"""The bytecode events of one call, counted with sys.settrace.

With frame.f_trace_opcodes set, the tracer sees each bytecode that a
Python frame runs; a call into C counts as one event.  The count is exact
and repeatable under one CPython version.  tests/test_complexity.py reads
cost growth from it and scripts/bench.py records it per layer row.
"""
import sys


def opcode_count(fn, *args) -> int:
    """The bytecode events that Python frames run during fn(*args)."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            count += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count
