"""One home per rule: the nonvanishing threshold and the tangency bound
are read in leafgauge.fields only, each by the one function that applies
it, JSON is parsed only by the reader in leafgauge.fixtures, and a report
entry's verdict is made only by verify.check_entry, so a copy of any of
these rules, or a second JSON reader, fails here."""

import ast
from pathlib import Path

import pytest

import leafgauge

SOURCES = sorted(Path(leafgauge.__file__).parent.glob("*.py"))

# rule constant -> the functions of fields.py that read it; _namespace
# binds the threshold, once per field, for the monitor of the generated flow
# code, the squared form of vanishes, and _tangency gives
# transversality_check and base_point their verdict
HOMES = {
    "NONVANISH_THRESHOLD": {"_vanish_bound", "_namespace"},
    "TANGENCY_SINE": {"_tangency"},
}


def _reads(path: Path):
    """(constant, enclosing top-level function or None) for every read or
    import of a rule constant in the module at path."""
    for top in ast.parse(path.read_text()).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            names = []
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            yield from ((name, owner) for name in names if name in HOMES)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "fields.py"],
                         ids=lambda p: p.name)
def test_rule_constants_are_read_only_in_fields(path):
    assert list(_reads(path)) == []


def test_each_rule_constant_has_its_functions():
    reads = {}
    for name, owner in _reads(Path(leafgauge.__file__).parent / "fields.py"):
        reads.setdefault(name, set()).add(owner)
    assert reads == HOMES


def _json_parses(path: Path):
    """The enclosing top-level function (or None) of every call or import
    of json.load or json.loads in the module at path."""
    for top in ast.parse(path.read_text()).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"
                    or isinstance(node, ast.ImportFrom) and node.module == "json"
                    and {a.name for a in node.names} & {"load", "loads"}):
                yield owner


def test_json_is_parsed_only_by_the_fixture_reader():
    # every JSON input (fixtures and saved reports) goes through one strict
    # reader: duplicate keys refused, every key path typed by one table
    parses = [(path.name, owner) for path in SOURCES for owner in _json_parses(path)]
    assert parses == [("fixtures.py", "_read_json")]


def _entry_makers(path: Path):
    """The enclosing top-level function (or None) of every call of
    CheckEntry in the module at path."""
    for top in ast.parse(path.read_text()).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == "CheckEntry"
                    or isinstance(node.func, ast.Attribute) and node.func.attr == "CheckEntry"):
                yield owner


def test_verdicts_are_made_only_by_check_entry():
    # a report entry's verdict (residual <= tolerance, or >= in min mode) is
    # made in one place: the suite writes every entry through check_entry,
    # and verify re-derives each saved verdict through it
    makers = [(path.name, owner) for path in SOURCES for owner in _entry_makers(path)]
    assert makers == [("verify.py", "check_entry")]
