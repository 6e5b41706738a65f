"""The CLI transcript is the output contract: pin it, and check the CLI's rules on it.

``tests/fixtures/cli_transcript.txt`` holds what ``gmapkit`` printed,
exited with and wrote for a fixed list of commands (see
``scripts/cli_transcript.py``).  Regenerate it, only when an output is
meant to change, with ``PYTHONPATH=src python3 scripts/cli_transcript.py``.
"""

import runpy
from pathlib import Path

SCRIPT = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts" / "cli_transcript.py"))
GOLDEN = SCRIPT["GOLDEN"]


def test_transcript_matches_golden():
    # compared block by block, so a failure names the first command that changed
    assert SCRIPT["render"]().split("\n\n") == GOLDEN.read_text(encoding="utf-8").split("\n\n")


def _contract_faults(block):
    """What in one command block breaks the CLI contract."""
    command, status, *rest = block.split("\n")
    err = [line for line in rest if line.startswith("err| ")]
    faults = []
    if not command.startswith("$ gmapkit "):
        faults.append("no command line")
    if status not in ("exit 0", "exit 1", "exit 2"):
        faults.append(f"{status!r} in place of exit 0, 1 or 2")
    if any(not line.startswith("err| E_") for line in err):
        faults.append("a stderr line without an E_ code")
    if status == "exit 0" and err:
        faults.append("stderr on exit 0")
    if status != "exit 0" and any(line.startswith("wrote ") for line in rest):
        faults.append("a failed command wrote a file")
    if status == "exit 2" and not (err and err[0].startswith("err| E_SYNTAX ")):
        faults.append("exit 2 without E_SYNTAX first")
    return faults


def test_every_command_keeps_the_cli_contract():
    blocks = GOLDEN.read_text(encoding="utf-8").rstrip("\n").split("\n\n")[1:]
    assert blocks
    faults = {block.split("\n")[0]: _contract_faults(block) for block in blocks}
    assert {command: found for command, found in faults.items() if found} == {}
