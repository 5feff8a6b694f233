"""Tests for the benchmark registry (repro.instances.registry)."""

import pytest

from repro.instances.registry import (
    FIGURE_INSTANCES,
    REGISTRY,
    TABLE2_INSTANCES,
    get_instance,
    list_instances,
)


class TestRegistryContents:
    def test_suite_has_sixty_instances(self):
        assert len(REGISTRY) == 60

    def test_names_unique(self):
        names = [entry.name for entry in REGISTRY]
        assert len(names) == len(set(names))

    def test_table2_has_fourteen_rows(self):
        assert len(TABLE2_INSTANCES) == 14
        for name in TABLE2_INSTANCES:
            assert get_instance(name).paper is not None

    def test_figure_instances_are_the_papers_four(self):
        assert set(FIGURE_INSTANCES) == {
            "or-100-20-8-UC-10", "90-10-10-q", "s15850a_15_7", "Prod-32",
        }

    def test_all_four_families_present(self):
        families = {entry.family for entry in REGISTRY}
        assert families == {"or", "q", "iscas", "prod"}

    def test_paper_rows_carry_throughputs(self):
        entry = get_instance("Prod-8")
        assert entry.paper.throughput_this_work == pytest.approx(994.9)
        assert entry.paper.speedup == pytest.approx(523.6)
        assert entry.paper.throughput_diffsampler is None  # TO in the paper


class TestLookup:
    def test_get_instance(self):
        entry = get_instance("75-10-1-q")
        assert entry.family == "q"

    def test_unknown_instance(self):
        with pytest.raises(KeyError):
            get_instance("not-an-instance")

    def test_list_by_family(self):
        assert all(get_instance(n).family == "prod" for n in list_instances(family="prod"))
        assert len(list_instances(family="or")) >= 20

    def test_list_by_tag(self):
        assert set(list_instances(tag="table2")) == set(TABLE2_INSTANCES)


class TestBuilding:
    @pytest.mark.parametrize("name", ["or-50-10-7-UC-10", "75-10-1-q"])
    def test_build_is_deterministic(self, name):
        entry = get_instance(name)
        first, _ = entry.build()
        second, _ = entry.build()
        assert list(first) == list(second)
        assert first.name == name

    def test_build_cnf_shortcut(self):
        formula = get_instance("or-50-10-7-UC-10").build_cnf()
        assert formula.num_clauses > 0

    def test_different_instances_differ(self):
        first = get_instance("75-10-1-q").build_cnf()
        second = get_instance("75-10-10-q").build_cnf()
        assert list(first) != list(second)
