"""One repetition of a benchmark job, in a fresh interpreter.

    python3 child.py run   STDOUT_FILE [SPANS_FILE] -- <karaka-qg arguments>
    python3 child.py trace STDOUT_FILE [SPANS_FILE] -- <karaka-qg arguments>
    python3 child.py setup STDOUT_FILE [SPANS_FILE] -- <karaka-qg arguments>

``run`` calls ``karaka_qg.cli.main`` once with the given arguments, with
the command's standard output sent to STDOUT_FILE. ``trace`` does the
same with the spans of ``tracing`` recorded (and written to SPANS_FILE
when given). ``setup`` only imports the package and builds what the
command builds before it reads input, through the command's own helpers:
the parsed configuration, the marker table (``cli._load_markers``) and
the lexicon, builtin plus every ``--lexicon`` (``cli._load_lexicon``);
``eval`` builds neither table.

The clock starts just before ``import karaka_qg.cli``. Right before the
clock starts and right after it stops, the process runs ``kernel``, a
fixed piece of pure-Python work that does not touch ``karaka_qg``; its
mean time (``kernel_s``) tells how fast the host ran around the job. The
last line of standard output is a JSON object with the timings, the exit
code and ``ru_maxrss`` of this process. The package must be importable,
normally through PYTHONPATH.
"""

import contextlib
import json
import resource
import sys
import time

KERNEL_ROUNDS = 40


def kernel() -> float:
    """Seconds taken by a fixed piece of work: dict, list and string handling.

    It imports nothing, so it leaves the timed imports of the job alone.
    """
    t0 = time.perf_counter()
    words = [f"w{i % 97}_{i % 13}" for i in range(2000)]
    total = 0
    for _ in range(KERNEL_ROUNDS):
        index = {}
        for i, word in enumerate(words):
            index.setdefault(word, []).append(i)
        rows = [(k, len(v), " ".join(k.split("_"))) for k, v in index.items()]
        text = "\n".join(f'{{"id": "{k}", "n": {n}, "text": "{t}"}}' for k, n, t in rows)
        total += sum(len(line) for line in sorted(text.split("\n")))
    assert total == KERNEL_ROUNDS * 50_762, total
    return time.perf_counter() - t0


def _setup(argv) -> None:
    from karaka_qg import cli

    args = cli.build_parser().parse_args(argv)
    cfg = cli._config_from_args(args)
    if args.command != "eval":
        cli._load_markers(cfg)
        cli._load_lexicon(cfg)


def main() -> int:
    sep = sys.argv.index("--")
    mode, stdout_path, *rest = sys.argv[1:sep]
    spans_path = rest[0] if rest else None
    argv = sys.argv[sep + 1:]
    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
    kernel_before = kernel()
    t0 = time.perf_counter()
    import karaka_qg.cli
    t_import = time.perf_counter()
    if mode == "setup":
        _setup(argv)
        rc = 0
    else:
        if tracer is not None:
            tracer.install()
        with open(stdout_path, "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out):
            rc = karaka_qg.cli.main(argv)
    t_end = time.perf_counter()
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "rc": rc,
        "wall_s": t_end - t0,
        "import_s": t_import - t0,
        "kernel_s": (kernel_before + kernel()) / 2,
        "maxrss_mb": maxrss_mb,
    }
    if tracer is not None:
        result["unwrapped"] = tracer.unwrapped
        result["metrics"] = tracer.metrics(wall_s=t_end - t0, import_s=t_import - t0)
        result["samples"] = tracer.samples()
        if spans_path:
            tracer.write_spans(spans_path, t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
