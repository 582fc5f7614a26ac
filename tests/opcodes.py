"""The bytecode events of one call, counted with sys.settrace.

With frame.f_trace_opcodes set, the tracer sees each bytecode that a
Python frame runs; a call into C counts as one event.  The count is exact
and repeatable under one CPython version.  The garbage collector is off
during a count: a collection would run the Python callbacks in gc.callbacks
(hypothesis appends one) inside the counted call, where they would count.
tests/test_complexity.py reads cost growth from it and scripts/bench.py
records it per layer row.
"""
import gc
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

    previous, collecting = sys.gettrace(), gc.isenabled()
    gc.disable()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return count
