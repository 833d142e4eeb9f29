"""Synthetic census-like microdata (substitute for the paper's SAL / OCC).

The paper's evaluation uses two 600k-row extracts of the American Community
Survey obtained through IPUMS [37]: SAL (sensitive attribute *Income*) and
OCC (sensitive attribute *Occupation*), both with the seven QI attributes
Age, Gender, Race, Marital Status, Birth Place, Education and Work Class.
Those extracts are not redistributable, so this module generates seeded
synthetic tables with

* exactly the schema and domain sizes reported in Table 6 of the paper
  (Age 79, Gender 2, Race 9, Marital Status 6, Birth Place 56, Education 17,
  Work Class 9, Income 50, Occupation 50), and
* realistic marginal skew and inter-attribute correlation (education depends
  on age, marital status on age, income/occupation on education and age,
  work class on education), because the relative behaviour of the algorithms
  is driven by QI-value diversity and SA skew rather than by exact ACS
  frequencies.

The sensitive-value distributions are built so that the most frequent value
stays below 10% of the data, hence every generated table is l-eligible for
all the ``l`` values (2..10) used in the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dataset.table import Attribute, Schema, Table

__all__ = ["CensusConfig", "make_census", "make_sal", "make_occ", "CENSUS_DOMAIN_SIZES"]

#: Domain sizes of Table 6 in the paper.
CENSUS_DOMAIN_SIZES: dict[str, int] = {
    "Age": 79,
    "Gender": 2,
    "Race": 9,
    "Marital Status": 6,
    "Birth Place": 56,
    "Education": 17,
    "Work Class": 9,
    "Income": 50,
    "Occupation": 50,
}

#: The seven quasi-identifier attributes shared by SAL and OCC.
CENSUS_QI_NAMES: tuple[str, ...] = (
    "Age",
    "Gender",
    "Race",
    "Marital Status",
    "Birth Place",
    "Education",
    "Work Class",
)


@dataclass(frozen=True)
class CensusConfig:
    """Configuration of the synthetic census generator.

    ``domain_sizes`` defaults to the paper's Table 6 and should normally be
    left alone; it is exposed so that tests can shrink domains for speed.
    """

    domain_sizes: dict[str, int] = field(default_factory=lambda: dict(CENSUS_DOMAIN_SIZES))
    #: Zipf exponent for the skewed categorical marginals (Race, Birth Place, Work Class).
    zipf_exponent: float = 1.1
    #: Zipf exponent for the sensitive attributes; kept small so that the most
    #: frequent sensitive value stays well below ``n / 10``.
    sensitive_exponent: float = 0.6

    def domain(self, name: str) -> int:
        return self.domain_sizes[name]

    @classmethod
    def scaled(cls, qi_scale: float, **overrides) -> "CensusConfig":
        """A config whose *QI* domains are scaled down by ``qi_scale``.

        The paper's experiments use 600k rows; at laptop scale the ratio of
        rows to distinct QI combinations — the quantity that actually drives
        the relative behaviour of TP and the baselines — would collapse if the
        Table 6 domains were kept verbatim.  Scaling every QI domain by
        ``qi_scale`` (minimum size 2) restores the paper's rows-per-QI-group
        regime while keeping the schema, the skew and the sensitive domains
        (and hence the feasible range of ``l``) untouched.
        """
        if not 0 < qi_scale <= 1:
            raise ValueError(f"qi_scale must be in (0, 1], got {qi_scale}")
        sizes = dict(CENSUS_DOMAIN_SIZES)
        for name in CENSUS_QI_NAMES:
            sizes[name] = max(2, round(sizes[name] * qi_scale))
        return cls(domain_sizes=sizes, **overrides)


def _zipf_probabilities(size: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, size + 1, dtype=float)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def _shifted(probabilities: np.ndarray, shift: int) -> np.ndarray:
    return np.roll(probabilities, shift)


def _discrete_normal(size: int, mean_fraction: float, std_fraction: float) -> np.ndarray:
    """A discretized, truncated normal over ``size`` bins."""
    centers = (np.arange(size) + 0.5) / size
    density = np.exp(-0.5 * ((centers - mean_fraction) / std_fraction) ** 2)
    return density / density.sum()


def _sample(rng: np.random.Generator, probabilities: np.ndarray, count: int) -> np.ndarray:
    return rng.choice(len(probabilities), size=count, p=probabilities)


def _attribute(name: str, size: int) -> Attribute:
    """A categorical attribute whose values are labelled integers.

    Raw labels are strings like ``"Age#12"`` so that example scripts print
    something readable; the algorithms only ever see the integer codes.
    """
    return Attribute(name, tuple(f"{name}#{value}" for value in range(size)))


def _generate_columns(
    n: int, seed: int, config: CensusConfig
) -> dict[str, np.ndarray]:
    """Generate all nine census columns as integer code arrays."""
    rng = np.random.default_rng(seed)
    sizes = {name: config.domain(name) for name in CENSUS_DOMAIN_SIZES}

    # Age: adult population, skewed towards younger working ages.
    age_probabilities = _discrete_normal(sizes["Age"], mean_fraction=0.35, std_fraction=0.28)
    age = _sample(rng, age_probabilities, n)
    age_fraction = age / max(sizes["Age"] - 1, 1)

    # Gender: essentially balanced.
    gender = _sample(rng, np.array([0.508, 0.492]), n)

    # Race, Birth Place, Work Class: heavily skewed categorical marginals.
    race = _sample(rng, _zipf_probabilities(sizes["Race"], config.zipf_exponent), n)
    birth_place = _sample(
        rng, _zipf_probabilities(sizes["Birth Place"], config.zipf_exponent), n
    )

    # Marital Status: young adults mostly "never married" (code 0), older
    # adults spread over the remaining codes.
    marital_size = sizes["Marital Status"]
    marital = np.empty(n, dtype=np.int64)
    young = age_fraction < 0.2
    marital[young] = _sample(
        rng,
        _shifted(_zipf_probabilities(marital_size, 1.5), 0),
        int(young.sum()),
    )
    marital[~young] = _sample(
        rng,
        _shifted(_zipf_probabilities(marital_size, 0.8), marital_size // 2),
        int((~young).sum()),
    )

    # Education: correlated with age (older respondents skew to lower codes of
    # the education scale in the ACS coding).
    education_size = sizes["Education"]
    education = np.empty(n, dtype=np.int64)
    for band, (low, high) in enumerate(((0.0, 0.25), (0.25, 0.55), (0.55, 1.01))):
        mask = (age_fraction >= low) & (age_fraction < high)
        mean = 0.65 - 0.15 * band
        probabilities = _discrete_normal(education_size, mean_fraction=mean, std_fraction=0.22)
        education[mask] = _sample(rng, probabilities, int(mask.sum()))

    # Work Class: correlated with education (higher education → shifted mix).
    work_size = sizes["Work Class"]
    work_class = np.empty(n, dtype=np.int64)
    high_education = education >= education_size // 2
    work_class[high_education] = _sample(
        rng, _shifted(_zipf_probabilities(work_size, config.zipf_exponent), 2),
        int(high_education.sum()),
    )
    work_class[~high_education] = _sample(
        rng, _zipf_probabilities(work_size, config.zipf_exponent),
        int((~high_education).sum()),
    )

    # Sensitive attributes.  Per-education-band distributions are cyclic
    # shifts of a mildly skewed Zipf vector: correlation with education is
    # preserved while the global marginal stays flat enough that the table is
    # l-eligible for every l used in the experiments.
    income_size = sizes["Income"]
    income_base = _zipf_probabilities(income_size, config.sensitive_exponent)
    income = np.empty(n, dtype=np.int64)
    occupation_size = sizes["Occupation"]
    occupation_base = _zipf_probabilities(occupation_size, config.sensitive_exponent)
    occupation = np.empty(n, dtype=np.int64)
    bands = np.minimum(education * 4 // max(education_size, 1), 3)
    for band in range(4):
        mask = bands == band
        count = int(mask.sum())
        if count == 0:
            continue
        income[mask] = _sample(rng, _shifted(income_base, band * 7), count)
        occupation[mask] = _sample(rng, _shifted(occupation_base, band * 11), count)

    return {
        "Age": age,
        "Gender": gender,
        "Race": race,
        "Marital Status": marital,
        "Birth Place": birth_place,
        "Education": education,
        "Work Class": work_class,
        "Income": income,
        "Occupation": occupation,
    }


def make_census(
    n: int,
    seed: int = 0,
    sensitive: str = "Income",
    config: CensusConfig | None = None,
) -> Table:
    """Generate an ``n``-row census-like table with the given sensitive attribute.

    Parameters
    ----------
    n:
        Number of rows.
    seed:
        Seed of the underlying :class:`numpy.random.Generator`; identical
        parameters always produce the identical table.
    sensitive:
        Either ``"Income"`` (SAL) or ``"Occupation"`` (OCC).
    config:
        Optional :class:`CensusConfig` overriding domain sizes or skew.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if sensitive not in ("Income", "Occupation"):
        raise ValueError(f"sensitive must be 'Income' or 'Occupation', got {sensitive!r}")
    config = config or CensusConfig()
    columns = _generate_columns(n, seed, config)

    qi_attributes = tuple(
        _attribute(name, config.domain(name)) for name in CENSUS_QI_NAMES
    )
    sensitive_attribute = _attribute(sensitive, config.domain(sensitive))
    schema = Schema(qi=qi_attributes, sensitive=sensitive_attribute)

    qi_matrix = np.column_stack([columns[name] for name in CENSUS_QI_NAMES])
    # Hand the generator's code arrays straight to the columnar form; the
    # row-tuple representation is materialized only if an algorithm asks.
    return Table.from_arrays(schema, qi_matrix, columns[sensitive])


def make_sal(n: int, seed: int = 0, config: CensusConfig | None = None) -> Table:
    """The SAL-like dataset: seven census QI attributes, sensitive attribute Income."""
    return make_census(n, seed=seed, sensitive="Income", config=config)


def make_occ(n: int, seed: int = 0, config: CensusConfig | None = None) -> Table:
    """The OCC-like dataset: seven census QI attributes, sensitive attribute Occupation."""
    return make_census(n, seed=seed, sensitive="Occupation", config=config)
