import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _mutants():
    path = os.path.join(ROOT, "tools", "mutants.py")
    spec = importlib.util.spec_from_file_location("mutants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_catalogue_entry_matches_one_place():
    # a mutant whose text no longer occurs once would mutate nothing, or an
    # unintended place: catalogue rot shows up here, not in a silent survivor
    mutants = _mutants()
    assert mutants.CATALOGUE
    for mutant in mutants.CATALOGUE:
        assert mutant.old != mutant.new, mutant
        assert mutants.matches(mutant) == 1, mutant
