"""Run ``spreadwave.cli.main`` in-process and capture what it prints.

    res = invoke(["simulate", "--steps", "10"])
    res.exit_code, res.stdout, res.stderr
"""

import contextlib
import io
from typing import NamedTuple

from spreadwave.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    # The SystemExit or other exception that ended the run; None on exit 0.
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(args, catch_exceptions: bool = True) -> Result:
    """``main(args)``'s result.  An exception other than SystemExit exits 1,
    or propagates out if ``catch_exceptions`` is false."""
    out, err = io.StringIO(), io.StringIO()
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args)
        except SystemExit as exc:
            if exc.code:
                code, exception = exc.code, exc
        except Exception as exc:
            if not catch_exceptions:
                raise
            code, exception = 1, exc
    return Result(code, out.getvalue(), err.getvalue(), exception)
