"""Fresh interpreters for the tests that need a process of their own.

A child imports the `stimclone` this process imported: its directory goes
ahead of the inherited PYTHONPATH.  A child script may call `peak()`, the
child's own VmHWM in KiB.  Its ru_maxrss would not do: Linux carries the
peak of the spawning process into it at exec, so inside a large test run it
reads no rise.
"""

import os
import subprocess
import sys

import stimclone

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(stimclone.__file__)))

_PEAK = (
    "def peak():\n"
    "    with open('/proc/self/status') as status:\n"
    "        return int(next(line for line in status if line.startswith('VmHWM:')).split()[1])\n"
)


def child_env() -> dict:
    """os.environ with the directory of the imported stimclone ahead of its PYTHONPATH."""
    path = [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def run_python(*args, env=None, **kwargs) -> subprocess.CompletedProcess:
    """`python *args` in a child, stdout and stderr captured as bytes unless text=True.

    `env` adds variables to the child's environment.
    """
    env = {**child_env(), **(env or {})}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, **kwargs)


def run_script(script: str) -> subprocess.CompletedProcess:
    """Run `script`, with `peak()` defined, in a child; text output, and a failure raises."""
    return run_python("-c", _PEAK + script, text=True, check=True)


def peak_rise(setup: str, call: str) -> tuple[int, str]:
    """Run `setup`, then `call`, in a child: (VmHWM rise of `call` in KiB, repr(f)).

    `call` may bind f.
    """
    result = run_script(f"{setup}\nf = None\nbefore = peak()\n{call}\nprint(peak() - before, repr(f))\n")
    rise, f = result.stdout.split()
    return int(rise), f
