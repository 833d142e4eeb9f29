"""Privacy verification and attack simulation.

* :mod:`repro.privacy.checks` — quantify the diversity a published table
  achieves and the worst-case adversary confidence;
* :mod:`repro.privacy.attack` — simulate the linking and homogeneity attacks
  of Section 1 against a published table, given an adversary who knows every
  individual's QI values;
* :mod:`repro.privacy.spec` — the first-class :class:`PrivacySpec` hierarchy
  and registry: frequency l-diversity and the related SA-aware principles
  surveyed in Section 2 (entropy / recursive l-diversity,
  (alpha, k)-anonymity, k-anonymity, t-closeness), each checked, requested,
  enforced and served through its spec class.
"""

from repro.privacy.attack import AttackReport, simulate_linking_attack
from repro.privacy.checks import (
    DiversityReport,
    adversary_confidence,
    diversity_report,
)
from repro.privacy.spec import (
    AlphaKAnonymity,
    EntropyLDiversity,
    FrequencyLDiversity,
    KAnonymity,
    PrivacyModelInfo,
    PrivacyRegistry,
    PrivacySpec,
    RecursiveCLDiversity,
    TCloseness,
    enforce_spec,
    privacy_from_dict,
    privacy_registry,
    resolve_privacy,
)

__all__ = [
    "AlphaKAnonymity",
    "AttackReport",
    "DiversityReport",
    "EntropyLDiversity",
    "FrequencyLDiversity",
    "KAnonymity",
    "PrivacyModelInfo",
    "PrivacyRegistry",
    "PrivacySpec",
    "RecursiveCLDiversity",
    "TCloseness",
    "adversary_confidence",
    "diversity_report",
    "enforce_spec",
    "privacy_from_dict",
    "privacy_registry",
    "resolve_privacy",
    "simulate_linking_attack",
]
