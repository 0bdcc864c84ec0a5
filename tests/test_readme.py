"""The README's file examples load through the library's readers."""

import json
import re
from pathlib import Path

from depvit.fileio import tree_from_json_dict, tree_to_json_dict
from depvit.pruning import PruneLedger

README = Path(__file__).resolve().parent.parent / "README.md"


def file_examples() -> list[dict]:
    """The JSON blocks of the README's "Tree and ledger files" section."""
    text = README.read_text()
    section = text[text.index("### Tree and ledger files"):]
    section = section[:section.index("\n## ")]
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", section, re.S)]


def test_section_has_one_tree_and_one_ledger():
    assert [sorted(d) for d in file_examples()] == [
        ["depth", "parent", "root", "subtree", "weight"], ["events", "n_tokens"]]


def test_tree_example_loads_as_written():
    doc = file_examples()[0]
    tree = tree_from_json_dict(doc)
    assert tree.depth.tolist() == doc["depth"]  # depth is recomputed, not read
    assert tree_to_json_dict(tree) == doc


def test_ledger_example_loads_as_written():
    doc = file_examples()[1]
    ledger = PruneLedger.from_json_dict(doc)
    assert ledger.to_json_dict() == doc
    assert ledger.survivors().tolist() == [1, 2, 3]
