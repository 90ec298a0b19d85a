"""Where the benchmark finds the program, and the environment it records.

The benchmark always runs the mksurf source tree of the checkout it lives
in (`<root>/src`), never an installed copy, and refuses to run without it.
"""

import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def use_checkout_source():
    """Put the checkout's src/ first on sys.path; exits with code 2 when the
    checkout holds no mksurf source."""
    if not os.path.isfile(os.path.join(SRC, "mksurf", "__init__.py")):
        sys.stderr.write("perfbench: no mksurf source under %s\n" % SRC)
        raise SystemExit(2)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def check_imported():
    """Exit with code 2 unless mksurf was imported from the checkout."""
    import mksurf
    if os.path.dirname(os.path.dirname(os.path.abspath(mksurf.__file__))) != SRC:
        sys.stderr.write("perfbench: imported mksurf from %s, not %s\n" % (mksurf.__file__, SRC))
        raise SystemExit(2)


def child_env():
    """Environment for a fresh interpreter that must import the same source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("MKSURF_WORKERS", None)
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    import numpy
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": usable,
        "git_commit": _git_commit(),
        "isolation": "none: the benchmark pins no CPU and isolates no core",
    }
