"""Tests for the first-class privacy model hierarchy (`repro.privacy.spec`)."""

from __future__ import annotations

import pickle
from collections import Counter

import pytest

from repro.dataset.generalized import GeneralizedTable, Partition
from repro.errors import DuplicateRegistrationError, UnknownEntryError, VerificationError
from repro.privacy.spec import (
    TOLERANCE,
    AlphaKAnonymity,
    EntropyLDiversity,
    FrequencyLDiversity,
    KAnonymity,
    PrivacySpec,
    RecursiveCLDiversity,
    TCloseness,
    enforce_spec,
    privacy_from_dict,
    privacy_registry,
    resolve_privacy,
)
from tests.principle_oracles import TOLERANCE as ORACLE_TOLERANCE
from tests.principle_oracles import (
    satisfies_alpha_k_anonymity,
    satisfies_entropy_l_diversity,
    satisfies_recursive_cl_diversity,
    satisfies_t_closeness,
)

ALL_SPECS = [
    FrequencyLDiversity(2),
    EntropyLDiversity(2.5),
    RecursiveCLDiversity(2.0, 3),
    AlphaKAnonymity(0.5, 4),
    KAnonymity(3),
    TCloseness(0.3),
]


class TestRoundTrip:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.kind)
    def test_dict_round_trip(self, spec):
        assert privacy_from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.kind)
    def test_pickle_round_trip(self, spec):
        assert pickle.loads(pickle.dumps(spec)) == spec

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.kind)
    def test_token_is_deterministic_and_kind_prefixed(self, spec):
        assert spec.token() == spec.token()
        assert spec.token().startswith(spec.kind + "(")

    def test_numeric_parameters_normalize(self):
        # int-vs-float encodings of the same model must share one token,
        # or cache keys would fragment on JSON number representation.
        assert EntropyLDiversity(3) == EntropyLDiversity(3.0)
        assert EntropyLDiversity(3).token() == EntropyLDiversity(3.0).token()
        assert privacy_from_dict({"kind": "entropy-l", "l": 3}) == EntropyLDiversity(3.0)

    def test_tokens_distinguish_specs_with_equal_parameters(self):
        tokens = {spec.token() for spec in ALL_SPECS}
        assert len(tokens) == len(ALL_SPECS)
        assert FrequencyLDiversity(2).token() != EntropyLDiversity(2).token()


class TestRegistry:
    def test_every_spec_is_registered(self):
        assert set(privacy_registry.names()) == {
            "alpha-k", "entropy-l", "frequency-l", "k-anonymity",
            "recursive-cl", "t-closeness",
        }

    def test_unknown_kind(self):
        with pytest.raises(UnknownEntryError):
            privacy_registry.get("swiss-cheese")
        with pytest.raises(UnknownEntryError):
            privacy_from_dict({"kind": "swiss-cheese"})

    def test_t_closeness_is_check_only(self):
        assert not privacy_registry.get("t-closeness").enforceable
        assert privacy_registry.get("frequency-l").enforceable

    def test_duplicate_registration_rejected(self):
        with pytest.raises(DuplicateRegistrationError):
            privacy_registry.register({"l": {"type": "integer"}})(FrequencyLDiversity)

    def test_params_schema_lists_every_field(self):
        for info in privacy_registry.entries():
            spec_fields = set(info.params_schema)
            assert spec_fields, info.name
            for constraints in info.params_schema.values():
                assert constraints["type"] in ("integer", "number")

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "frequency-l"},  # missing l
            {"kind": "frequency-l", "l": 2, "k": 3},  # extra param
            {"kind": "frequency-l", "l": "2"},  # wrong type
            {"kind": "frequency-l", "l": True},  # bool is not an int
            {"kind": "frequency-l", "l": 0},  # out of range
            {"kind": "entropy-l", "l": 0},
            {"kind": "recursive-cl", "c": 0, "l": 2},
            {"kind": "recursive-cl", "c": 2.0, "l": 0},
            {"kind": "alpha-k", "alpha": 1.5, "k": 2},
            {"kind": "alpha-k", "alpha": 0.5, "k": 0},
            {"kind": "k-anonymity", "k": 0},
            {"kind": "t-closeness", "t": -0.1},
            "not-a-dict",
            {"no": "kind"},
        ],
    )
    def test_invalid_payloads(self, payload):
        with pytest.raises(ValueError):
            privacy_from_dict(payload)


class TestResolvePrivacy:
    def test_none_resolves_the_l_sugar(self):
        assert resolve_privacy(None, 3) == FrequencyLDiversity(3)

    def test_int_sugar(self):
        assert resolve_privacy(4) == FrequencyLDiversity(4)

    def test_spec_passes_through(self):
        spec = EntropyLDiversity(2.0)
        assert resolve_privacy(spec) is spec

    def test_mapping_goes_through_the_registry(self):
        assert resolve_privacy({"kind": "k-anonymity", "k": 5}) == KAnonymity(5)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            resolve_privacy(None)
        with pytest.raises(ValueError):
            resolve_privacy(True)
        with pytest.raises(ValueError):
            resolve_privacy("entropy-l")


class TestSemantics:
    def test_group_floors(self):
        assert FrequencyLDiversity(3).group_floor() == 3
        assert EntropyLDiversity(2.5).group_floor() == 3
        assert RecursiveCLDiversity(2.0, 4).group_floor() == 4
        assert AlphaKAnonymity(0.25, 2).group_floor() == 4  # ceil(1/alpha) wins
        assert AlphaKAnonymity(0.5, 7).group_floor() == 7  # k wins
        assert KAnonymity(6).group_floor() == 6
        assert TCloseness(0.5).group_floor() == 1

    def test_anonymize_l_never_below_two(self):
        assert EntropyLDiversity(1.2).anonymize_l() == 2
        assert RecursiveCLDiversity(2.0, 1).anonymize_l() == 2
        assert KAnonymity(1).anonymize_l() == 2
        assert AlphaKAnonymity(1.0, 1).anonymize_l() == 2

    def test_check_only_spec_has_no_anonymize_l(self):
        with pytest.raises(ValueError):
            TCloseness(0.1).anonymize_l()

    def test_frequency_check_matches_eligibility_arithmetic(self):
        spec = FrequencyLDiversity(2)
        assert spec.check(Counter({"a": 2, "b": 2}))
        assert not spec.check(Counter({"a": 3, "b": 1}))
        assert not spec.check(Counter())

    def test_alpha_k_is_implied_by_its_derived_frequency_l(self):
        # The engine relies on this: no repair needed for alpha-k outputs.
        spec = AlphaKAnonymity(0.5, 3)
        l = spec.anonymize_l()
        histogram = Counter({"a": 2, "b": 2, "c": 2})
        assert max(histogram.values()) * l <= sum(histogram.values())
        assert spec.check(histogram)

    def test_t_closeness_requires_the_total_histogram(self):
        spec = TCloseness(0.2)
        with pytest.raises(ValueError):
            spec.check(Counter({"a": 1}))
        total = Counter({"a": 5, "b": 5})
        assert spec.check(Counter({"a": 1, "b": 1}), total)
        assert not spec.check(Counter({"a": 2}), total)

    def test_checks_agree_with_the_principles_oracles(self, hospital):
        generalized = GeneralizedTable.from_partition(
            hospital, Partition([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]], 10)
        )
        assert EntropyLDiversity(2.0).check_generalized(generalized) == (
            satisfies_entropy_l_diversity(generalized, 2.0)
        )
        assert RecursiveCLDiversity(3.0, 2).check_generalized(generalized) == (
            satisfies_recursive_cl_diversity(generalized, 3.0, 2)
        )
        assert AlphaKAnonymity(0.5, 2).check_generalized(generalized) == (
            satisfies_alpha_k_anonymity(generalized, 0.5, 2)
        )
        assert TCloseness(0.4).check_generalized(generalized) == (
            satisfies_t_closeness(generalized, 0.4)
        )
        assert FrequencyLDiversity(2).check_generalized(generalized) == (
            generalized.is_l_diverse(2)
        )
        assert ORACLE_TOLERANCE == TOLERANCE

    def test_eligibility_generalizes_l_eligibility(self, hospital):
        counts = hospital.sa_counts()
        n = len(hospital)
        assert FrequencyLDiversity(2).eligible(counts, n) == hospital.is_l_eligible(2)
        assert not FrequencyLDiversity(2).eligible(Counter(), 0)
        # k-anonymity is SA-blind: a single-valued SA column stays eligible.
        assert KAnonymity(3).eligible(Counter({"only": 10}), 10)
        assert not FrequencyLDiversity(2).eligible(Counter({"only": 10}), 10)

    def test_sa_blind_surrogate_table(self, hospital):
        surrogate = KAnonymity(2).prepare_table(hospital)
        assert len(surrogate) == len(hospital)
        assert surrogate.distinct_sa_count == len(hospital)
        assert surrogate.schema.qi == hospital.schema.qi


class TestEnforceSpec:
    def test_no_op_returns_the_same_object(self, hospital):
        generalized = GeneralizedTable.from_partition(
            hospital, Partition([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]], 10)
        )
        spec = FrequencyLDiversity(2)
        assert spec.check_generalized(generalized)
        repaired, merges = enforce_spec(hospital, generalized, spec)
        assert repaired is generalized
        assert merges == 0

    def test_repairs_an_entropy_violation_by_merging(self, hospital):
        # Table 2's [4..7] group is SA-homogeneous: entropy 0 < log 2.
        generalized = GeneralizedTable.from_partition(
            hospital, Partition([[0, 1], [2, 3], [4, 5, 6, 7], [8, 9]], 10)
        )
        spec = EntropyLDiversity(2.0)
        assert not spec.check_generalized(generalized)
        repaired, merges = enforce_spec(hospital, generalized, spec)
        assert merges >= 1
        assert spec.check_generalized(repaired)
        assert satisfies_entropy_l_diversity(repaired, 2.0)
        # The repair is a coarsening: rows and SA multiset are preserved.
        assert len(repaired) == len(generalized)
        assert sorted(repaired.sa_values) == sorted(generalized.sa_values)
        assert len(repaired.groups()) < len(generalized.groups())

    def test_repairs_a_group_size_violation(self, hospital):
        generalized = GeneralizedTable.from_partition(
            hospital, Partition([[0], [1], [2, 3], [4, 5, 6, 7], [8, 9]], 10)
        )
        spec = KAnonymity(2)
        repaired, merges = enforce_spec(hospital, generalized, spec)
        assert merges >= 1
        assert repaired.is_k_anonymous(2)

    def test_unrepairable_table_raises(self, hospital):
        # Even one merged group cannot reach entropy log(100).
        generalized = GeneralizedTable.from_partition(
            hospital, Partition([list(range(10))], 10)
        )
        with pytest.raises(VerificationError):
            enforce_spec(hospital, generalized, EntropyLDiversity(100.0))

    def test_empty_table_is_a_no_op(self, hospital):
        empty = hospital.subset([])
        generalized = GeneralizedTable.from_partition(empty, Partition([], 0))
        repaired, merges = enforce_spec(empty, generalized, FrequencyLDiversity(2))
        assert repaired is generalized and merges == 0


class TestSpecIsFrozen:
    def test_specs_are_immutable(self):
        spec = FrequencyLDiversity(2)
        with pytest.raises(Exception):
            spec.l = 3

    def test_base_class_is_abstract_enough(self):
        with pytest.raises(NotImplementedError):
            PrivacySpec().check(Counter({"a": 1}))
