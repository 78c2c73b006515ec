"""The public API equals the committed snapshot `tools/public_api.txt`.

`tools/public_api.py` prints one line per public name of the package (with
its signature, value or type). A change that adds, drops or re-signs a
public name changes that output, and then this test fails until the
snapshot is regenerated on purpose.
"""
import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool():
    spec = importlib.util.spec_from_file_location("public_api_tool", TOOLS / "public_api.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_api_matches_the_committed_snapshot():
    want = (TOOLS / "public_api.txt").read_text(encoding="utf-8").splitlines()
    got = load_tool().api_lines()
    added = sorted(set(got) - set(want))
    removed = sorted(set(want) - set(got))
    assert got == want, (
        f"public API changed: added {added}, removed {removed}. If the change is meant, "
        "regenerate the snapshot with `python3 tools/public_api.py > tools/public_api.txt` "
        "from the root of the checkout.")
