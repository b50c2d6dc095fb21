"""Set-up probe, run in a fresh interpreter by run.py.

Imports polaritylab from the checkout's ``src``, decodes the inputs it reads
on stdin (graph6 lines, or spec strings with the argument ``specs``) and
prints "ready", the number of inputs, the seconds its speed meter spent in
slices and the reference seconds per program second of the metered span
(see speed.py). The parent times the span from spawning this process to
reading that line.
"""

import sys
from pathlib import Path

import speed

with speed.metered():
    start = speed.clock()
    SRC = Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(SRC))

    import polaritylab  # noqa: E402
    from polaritylab import cli, graphs, polarity  # noqa: E402,F401

    if Path(polaritylab.__file__).resolve().parent != SRC / "polaritylab":
        sys.exit(2)
    decode = polarity.parse_spec if sys.argv[1:] == ["specs"] else graphs.graph6_decode
    decoded = [decode(line) for line in sys.stdin.read().split()]
    end = speed.clock()
factor = speed.Timeline().seconds(start, end) / (end - start)
print("ready", len(decoded), speed.spent(), factor, flush=True)
