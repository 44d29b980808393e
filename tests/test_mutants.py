import re
from pathlib import Path

import mutants

ROOT = Path(__file__).resolve().parent.parent


def test_each_mutant_edits_one_place_and_names_tests_that_exist():
    # A change that moves mutated code updates its mutant in the same change;
    # the runner itself takes seconds a mutant, so it runs outside tier-1.
    names = [m["name"] for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in mutants.MUTANTS:
        text = (ROOT / "src" / "repgame" / mutant["file"]).read_text(encoding="utf-8")
        assert text.count(mutant["old"]) == 1, mutant["name"]
        assert mutant["new"] != mutant["old"], mutant["name"]
        assert mutant["tests"] and mutant["found"], mutant["name"]
        for test in mutant["tests"]:
            path, function = test.split("::")
            assert re.search(rf"^def {function}\(", (ROOT / path).read_text(encoding="utf-8"), re.M), test
