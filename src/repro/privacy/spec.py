"""First-class privacy models: the :class:`PrivacySpec` hierarchy and registry.

Section 7 of the paper names "hardness and approximation for other privacy
principles" as the open direction.  This module makes the privacy model a
first-class abstraction instead of a bare ``l: int``, and is the one
implementation of each principle's check:

* :class:`FrequencyLDiversity` — the paper's optimization target and the
  default everywhere (``l=`` keeps working as sugar for it);
* :class:`EntropyLDiversity` and :class:`RecursiveCLDiversity` — the two
  stricter "well-represented" instantiations of Machanavajjhala et al.;
* :class:`AlphaKAnonymity` — Wong et al.'s (alpha, k)-anonymity;
* :class:`KAnonymity` — the SA-blind degenerate case (group sizes only);
* :class:`TCloseness` — Li et al.'s t-closeness, registered **check-only**:
  it constrains each group against the *table-wide* SA distribution, so it
  can be audited (``ldiversity verify --privacy t-closeness``) but not
  requested as an anonymization target.

Every spec is a frozen, picklable dataclass with a canonical serialization
(:meth:`PrivacySpec.to_dict` / :func:`privacy_from_dict`) and a canonical
:meth:`PrivacySpec.token` used in cache/store keys, and answers three
questions uniformly over SA histograms (``value -> count`` mappings):

* :meth:`PrivacySpec.check` — does one published QI-group satisfy the spec?
* :meth:`PrivacySpec.eligible` — can a table/shard with this SA histogram be
  anonymized under the spec at all (the generalization of l-eligibility)?
* :meth:`PrivacySpec.group_floor` — the minimum rows per group the spec
  implies (the generalization of ``l`` in the sharding merge bound).

The core algorithms optimize frequency l-diversity; each spec names the
frequency parameter they should run at (:meth:`PrivacySpec.anonymize_l`) and
:func:`enforce_spec` provides the post-anonymization **repair pass**: when
the requested spec is stricter than the frequency guarantee the algorithms
produce, offending QI-groups are re-merged (adjacent in group order, the
same greedy repair as shard eligibility) until every group passes — the
single-group fallback coincides with the spec's eligibility condition, so a
run that passed :meth:`eligible` always repairs successfully.  Specs the
frequency guarantee already implies (:meth:`PrivacySpec.implied_by_frequency`
— everything except recursive (c, l)-diversity with ``c <= 1``) skip the
pass entirely: the published table is bit-identical to the pre-spec code
path, and a violating group surfaces as a verification error (an algorithm
or merge-invariant bug) instead of being silently repaired.

:class:`PrivacyRegistry` mirrors the algorithm/metric registries: the single
source of truth the CLI flags, the HTTP ``privacy`` payload validation and
``GET /v1/privacy`` introspection are all derived from.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar

import numpy as np

from repro.dataset.generalized import GeneralizedTable, Partition
from repro.dataset.table import Attribute, Schema, Table
from repro.errors import DuplicateRegistrationError, UnknownEntryError, VerificationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

__all__ = [
    "AlphaKAnonymity",
    "EntropyLDiversity",
    "FrequencyLDiversity",
    "KAnonymity",
    "PrivacyModelInfo",
    "PrivacyRegistry",
    "PrivacySpec",
    "RecursiveCLDiversity",
    "TCloseness",
    "enforce_spec",
    "group_histograms",
    "privacy_from_dict",
    "privacy_registry",
    "resolve_privacy",
]

#: Floating-point slack applied to every boundary comparison of a check.
TOLERANCE = 1e-12


def group_histograms(generalized: GeneralizedTable) -> list[Counter]:
    """Per-QI-group sensitive-value histograms of a published table.

    Histograms come out in the same first-appearance group order as
    ``generalized.groups()``.  The Counters are assembled from the table's
    sparse per-(group, SA) count triples — one columnar pass instead of a
    Python Counter fill per group — for any group ids, negative included.
    """
    triple_gids, values, counts = generalized.group_sa_counts()
    if not counts.size:
        return []
    gids = generalized.group_ids_array()
    starts = np.concatenate(([0], np.flatnonzero(triple_gids[1:] != triple_gids[:-1]) + 1))
    ends = np.concatenate((starts[1:], [triple_gids.shape[0]]))
    # First forward occurrence of each group id: reversed fancy assignment
    # leaves the smallest row index in each slot, which ranks the blocks in
    # the groups() first-appearance order.  Ids shift up by the smallest one.
    low = int(gids.min())
    position = np.empty(int(gids.max()) - low + 1, dtype=np.int64)
    position[gids[::-1] - low] = np.arange(gids.shape[0] - 1, -1, -1)
    appearance = np.argsort(position[triple_gids[starts] - low], kind="stable")
    values_list = values.tolist()
    counts_list = counts.tolist()
    starts_list = starts.tolist()
    ends_list = ends.tolist()
    return [
        Counter(
            dict(
                zip(
                    values_list[starts_list[block] : ends_list[block]],
                    counts_list[starts_list[block] : ends_list[block]],
                )
            )
        )
        for block in appearance.tolist()
    ]


def _sa_total(generalized: GeneralizedTable) -> Counter:
    """The table-wide SA histogram (one bincount for non-negative codes)."""
    if len(generalized):
        codes = generalized.sa_codes()
        if int(codes.min()) >= 0:
            counts = np.bincount(codes)
            present = np.flatnonzero(counts)
            return Counter(dict(zip(present.tolist(), counts[present].tolist())))
    return Counter(generalized.sa_values)


@dataclass(frozen=True)
class PrivacySpec:
    """Base class of all privacy models.

    Subclasses are frozen dataclasses whose fields are the model parameters;
    they must set :attr:`kind` and implement :meth:`check`,
    :meth:`group_floor` and (unless check-only) :meth:`anonymize_l`.
    """

    #: Registry name of the model ("frequency-l", "entropy-l", ...).
    kind: ClassVar[str] = ""
    #: Whether the model can be requested as an anonymization target.  A
    #: check-only model (t-closeness) is still usable for auditing.
    enforceable: ClassVar[bool] = True
    #: Whether the model ignores the sensitive attribute entirely
    #: (k-anonymity); SA-blind models anonymize a surrogate table whose SA
    #: values are all distinct, turning frequency-l into a pure size floor.
    sa_blind: ClassVar[bool] = False

    # ------------------------------------------------------------- semantics

    def check(self, histogram: Mapping, total: Mapping | None = None) -> bool:
        """Whether one published QI-group with this SA histogram satisfies the spec.

        ``total`` is the table-wide SA histogram; only models defined
        relative to the overall distribution (t-closeness) consult it.
        """
        raise NotImplementedError

    def group_floor(self) -> int:
        """The minimum number of rows per QI-group the spec implies."""
        raise NotImplementedError

    def anonymize_l(self) -> int:
        """The frequency-l parameter the core algorithms should run at.

        Chosen so the frequency guarantee implies the spec whenever it can
        (alpha-k, k-anonymity) and gives :func:`enforce_spec` the best
        starting point otherwise (entropy / recursive diversity).
        """
        raise NotImplementedError

    def implied_by_frequency(self) -> bool:
        """Whether frequency l-diversity at :meth:`anonymize_l` provably
        implies this spec's per-group condition.

        For implied specs the enforcement pass is skipped entirely: a
        violating group can only mean a broken algorithm or merge invariant,
        which must surface as a verification error, never be silently
        repaired away.  The only registered spec that is *not* implied is
        recursive (c, l)-diversity with ``c <= 1``.
        """
        return True

    def eligible(self, histogram: Mapping, size: int) -> bool:
        """Whether a table/shard with this SA histogram admits a satisfying
        generalization (the spec-generalized l-eligibility condition).

        The default requires frequency-eligibility at :meth:`anonymize_l`
        (so the core algorithms can run) *and* :meth:`check` of the whole
        histogram (so the repair pass's single-group fallback passes).
        """
        if size <= 0:
            return False
        if histogram and max(histogram.values()) * self.anonymize_l() > size:
            return False
        return self.check(histogram, total=histogram)

    def check_generalized(self, generalized: GeneralizedTable) -> bool:
        """Whether every QI-group of a published table satisfies the spec."""
        total = _sa_total(generalized)
        return all(
            self.check(histogram, total) for histogram in group_histograms(generalized)
        )

    def prepare_table(self, table: Table) -> Table:
        """The table the core algorithms should run on (identity by default).

        SA-blind models return a surrogate with an all-distinct sensitive
        column, under which frequency l-diversity degenerates to a pure
        group-size floor.
        """
        return table

    # --------------------------------------------------------- serialization

    def params(self) -> dict:
        """The model parameters as a plain dict (dataclass fields)."""
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }

    def to_dict(self) -> dict:
        """Canonical JSON-ready encoding: ``{"kind": ..., **params}``."""
        return {"kind": self.kind, **self.params()}

    def token(self) -> str:
        """Canonical string encoding used in cache/store keys.

        Deterministic across processes: parameters are sorted by name and
        numbers are normalized at construction time (see ``_as_float``).
        """
        params = ",".join(
            f"{name}={value}" for name, value in sorted(self.params().items())
        )
        return f"{self.kind}({params})"

    def describe(self) -> str:
        """Human-readable name of the spec (same as the canonical token)."""
        return self.token()


def _as_int(name: str, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _as_float(name: str, value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class FrequencyLDiversity(PrivacySpec):
    """The paper's frequency l-diversity: ``max SA frequency * l <= group size``."""

    l: int

    kind: ClassVar[str] = "frequency-l"

    def __post_init__(self) -> None:
        if _as_int("l", self.l) < 1:
            raise ValueError(f"l must be >= 1, got {self.l}")

    def check(self, histogram: Mapping, total: Mapping | None = None) -> bool:
        if not histogram:
            return False
        return max(histogram.values()) * self.l <= sum(histogram.values())

    def check_generalized(self, generalized: GeneralizedTable) -> bool:
        return generalized.is_l_diverse(self.l)

    def group_floor(self) -> int:
        return self.l

    def anonymize_l(self) -> int:
        return self.l


@dataclass(frozen=True)
class EntropyLDiversity(PrivacySpec):
    """Entropy l-diversity: every group's SA entropy is at least ``log(l)``.

    ``l`` may be non-integral (the threshold is continuous).  Strictly
    stronger than frequency l-diversity is *not* guaranteed by the core
    algorithms, so runs under this spec rely on the repair pass.
    """

    l: float

    kind: ClassVar[str] = "entropy-l"

    def __post_init__(self) -> None:
        value = _as_float("l", self.l)
        if value <= 0:
            raise ValueError(f"l must be positive, got {self.l}")
        object.__setattr__(self, "l", value)

    def check(self, histogram: Mapping, total: Mapping | None = None) -> bool:
        if not histogram:
            return False
        size = sum(histogram.values())
        entropy = -sum(
            (count / size) * math.log(count / size) for count in histogram.values()
        )
        return entropy + TOLERANCE >= math.log(self.l)

    def group_floor(self) -> int:
        # log(l) entropy needs at least ceil(l) distinct values, hence rows.
        return max(1, math.ceil(self.l))

    def anonymize_l(self) -> int:
        return max(2, math.ceil(self.l))


@dataclass(frozen=True)
class RecursiveCLDiversity(PrivacySpec):
    """Recursive (c, l)-diversity: ``r_1 < c * (r_l + ... + r_m)``."""

    c: float
    l: int

    kind: ClassVar[str] = "recursive-cl"

    def __post_init__(self) -> None:
        if _as_float("c", self.c) <= 0:
            raise ValueError(f"c must be positive, got {self.c}")
        object.__setattr__(self, "c", float(self.c))
        if _as_int("l", self.l) < 1:
            raise ValueError(f"l must be >= 1, got {self.l}")

    def check(self, histogram: Mapping, total: Mapping | None = None) -> bool:
        frequencies = sorted(histogram.values(), reverse=True)
        if len(frequencies) < self.l:
            return False
        tail = sum(frequencies[self.l - 1:])
        return frequencies[0] < self.c * tail

    def implied_by_frequency(self) -> bool:
        # max <= size/l gives r1 <= r_l + ... + r_m (the tail holds at least
        # the l-th through last frequencies, which sum to >= size - (l-1)*r1
        # >= r1), so r1 < c * tail holds for every c > 1 but can fail at
        # c <= 1 — the one spec that genuinely needs the repair pass.
        return self.c > 1

    def group_floor(self) -> int:
        return self.l

    def anonymize_l(self) -> int:
        return max(2, self.l)


@dataclass(frozen=True)
class AlphaKAnonymity(PrivacySpec):
    """(alpha, k)-anonymity: groups of >= k rows, every SA frequency <= alpha.

    Frequency l-diversity at ``l = max(k, ceil(1/alpha))`` implies this
    spec, so the repair pass is a proven no-op for it.
    """

    alpha: float
    k: int

    kind: ClassVar[str] = "alpha-k"

    def __post_init__(self) -> None:
        value = _as_float("alpha", self.alpha)
        if not 0 < value <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        object.__setattr__(self, "alpha", value)
        if _as_int("k", self.k) < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    def check(self, histogram: Mapping, total: Mapping | None = None) -> bool:
        if not histogram:
            return False
        size = sum(histogram.values())
        if size < self.k:
            return False
        return max(histogram.values()) <= self.alpha * size + TOLERANCE

    def group_floor(self) -> int:
        return max(self.k, math.ceil(1.0 / self.alpha))

    def anonymize_l(self) -> int:
        return max(2, self.k, math.ceil(1.0 / self.alpha))


@dataclass(frozen=True)
class KAnonymity(PrivacySpec):
    """k-anonymity: every QI-group holds at least ``k`` rows (SA-blind).

    The degenerate case of the hierarchy: the sensitive column plays no
    role, so the core algorithms run on a surrogate table whose SA values
    are all distinct — frequency l-diversity at ``l = max(2, k)`` on that
    table is exactly a group-size floor — and the published table is
    rebuilt from the output partition against the original table.
    """

    k: int

    kind: ClassVar[str] = "k-anonymity"
    sa_blind: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if _as_int("k", self.k) < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    def check(self, histogram: Mapping, total: Mapping | None = None) -> bool:
        return sum(histogram.values()) >= self.k

    def check_generalized(self, generalized: GeneralizedTable) -> bool:
        return generalized.is_k_anonymous(self.k)

    def eligible(self, histogram: Mapping, size: int) -> bool:
        # SA-blind: any table with enough rows for one group is anonymizable.
        return size >= self.anonymize_l()

    def group_floor(self) -> int:
        return self.k

    def anonymize_l(self) -> int:
        return max(2, self.k)

    def prepare_table(self, table: Table) -> Table:
        surrogate = Attribute("__row__", tuple(range(max(len(table), 1))))
        schema = Schema(qi=table.schema.qi, sensitive=surrogate)
        return Table.from_arrays(
            schema, table.qi_columns, np.arange(len(table), dtype=np.int32)
        )


@dataclass(frozen=True)
class TCloseness(PrivacySpec):
    """t-closeness (variational distance), registered **check-only**.

    Defined relative to the table-wide SA distribution, so it cannot be
    enforced shard-locally; it is available to every verification surface
    (``ldiversity verify --privacy t-closeness --t 0.3``) but rejected as an
    anonymization target.
    """

    t: float

    kind: ClassVar[str] = "t-closeness"
    enforceable: ClassVar[bool] = False

    def __post_init__(self) -> None:
        value = _as_float("t", self.t)
        if value < 0:
            raise ValueError(f"t must be non-negative, got {self.t}")
        object.__setattr__(self, "t", value)

    def check(self, histogram: Mapping, total: Mapping | None = None) -> bool:
        if not histogram:
            return False
        if total is None:
            raise ValueError(
                "t-closeness needs the table-wide SA histogram (total=...)"
            )
        size = sum(histogram.values())
        n = sum(total.values())
        if n == 0:
            return True
        distance = 0.5 * sum(
            abs(histogram.get(value, 0) / size - count / n)
            for value, count in total.items()
        )
        return distance <= self.t + TOLERANCE

    def group_floor(self) -> int:
        return 1

    def implied_by_frequency(self) -> bool:
        return False  # never enforced anyway: the model is check-only

    def anonymize_l(self) -> int:
        raise ValueError(
            "t-closeness is a check-only privacy model; it cannot be "
            "requested as an anonymization target"
        )

    def eligible(self, histogram: Mapping, size: int) -> bool:
        return size > 0


# ------------------------------------------------------------------ registry


@dataclass(frozen=True)
class PrivacyModelInfo:
    """A registered privacy model plus its parameter schema."""

    name: str
    cls: type[PrivacySpec]
    #: Parameter name -> JSON-schema-flavoured constraints ("type" of
    #: "integer" or "number" plus bounds); every parameter is required.
    params_schema: dict[str, dict]
    enforceable: bool = True
    description: str = ""


class PrivacyRegistry:
    """Name -> :class:`PrivacyModelInfo` mapping, mirroring the algorithm
    and metric registries (single source of truth for CLI flags, HTTP
    payload validation and ``GET /v1/privacy``)."""

    kind = "privacy model"

    def __init__(self) -> None:
        self._entries: dict[str, PrivacyModelInfo] = {}

    def register(
        self, params: dict[str, dict], description: str = ""
    ) -> Callable[[type[PrivacySpec]], type[PrivacySpec]]:
        """Class decorator: register a spec class under its ``kind``."""

        def decorate(cls: type[PrivacySpec]) -> type[PrivacySpec]:
            if not cls.kind:
                raise ValueError(f"{cls.__name__} does not declare a kind")
            if cls.kind in self._entries:
                raise DuplicateRegistrationError(
                    f"{self.kind} {cls.kind!r} is already registered"
                )
            field_names = {field.name for field in dataclasses.fields(cls)}
            if set(params) != field_names:
                raise ValueError(
                    f"{cls.__name__} params schema {sorted(params)} does not "
                    f"match its fields {sorted(field_names)}"
                )
            self._entries[cls.kind] = PrivacyModelInfo(
                name=cls.kind,
                cls=cls,
                params_schema=params,
                enforceable=cls.enforceable,
                description=description,
            )
            return cls

        return decorate

    def get(self, name: str) -> PrivacyModelInfo:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownEntryError(
                f"unknown {self.kind} {name!r}; available: {sorted(self._entries)}"
            ) from None

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._entries))

    def entries(self) -> list[PrivacyModelInfo]:
        return [self._entries[name] for name in self.names()]

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)


privacy_registry = PrivacyRegistry()

privacy_registry.register(
    {"l": {"type": "integer", "minimum": 1}},
    description="frequency l-diversity (the paper's target; the default)",
)(FrequencyLDiversity)
privacy_registry.register(
    {"l": {"type": "number", "exclusiveMinimum": 0}},
    description="entropy l-diversity: per-group SA entropy >= log(l)",
)(EntropyLDiversity)
privacy_registry.register(
    {
        "c": {"type": "number", "exclusiveMinimum": 0},
        "l": {"type": "integer", "minimum": 1},
    },
    description="recursive (c, l)-diversity: r1 < c * (r_l + ... + r_m)",
)(RecursiveCLDiversity)
privacy_registry.register(
    {
        "alpha": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "k": {"type": "integer", "minimum": 1},
    },
    description="(alpha, k)-anonymity: group size >= k, SA frequencies <= alpha",
)(AlphaKAnonymity)
privacy_registry.register(
    {"k": {"type": "integer", "minimum": 1}},
    description="k-anonymity: group size >= k (sensitive-attribute-blind)",
)(KAnonymity)
privacy_registry.register(
    {"t": {"type": "number", "minimum": 0}},
    description="t-closeness (variational distance); check-only",
)(TCloseness)


def privacy_from_dict(payload: Mapping) -> PrivacySpec:
    """Build a spec from its canonical dict encoding, validated against the registry."""
    if not isinstance(payload, Mapping):
        raise ValueError(f"privacy spec must be an object, got {payload!r}")
    kind = payload.get("kind")
    if not isinstance(kind, str):
        raise ValueError(f"privacy spec needs a 'kind' string, got {kind!r}")
    info = privacy_registry.get(kind)  # raises UnknownEntryError
    params = {key: value for key, value in payload.items() if key != "kind"}
    unknown = sorted(set(params) - set(info.params_schema))
    if unknown:
        raise ValueError(
            f"privacy model {kind!r} does not take parameters {unknown}; "
            f"known: {sorted(info.params_schema)}"
        )
    missing = sorted(set(info.params_schema) - set(params))
    if missing:
        raise ValueError(f"privacy model {kind!r} requires parameters {missing}")
    for name, schema in info.params_schema.items():
        value = params[name]
        if schema["type"] == "integer":
            params[name] = _as_int(name, value)
        else:
            params[name] = _as_float(name, value)
    return info.cls(**params)


def resolve_privacy(
    privacy: "PrivacySpec | Mapping | int | None", l: int | None = None
) -> PrivacySpec:
    """Resolve the ``privacy`` field of a plan/request to a concrete spec.

    ``None`` keeps the historical contract: a bare ``l`` is sugar for
    :class:`FrequencyLDiversity`.  An ``int`` is the same sugar for call
    sites that thread one scalar (sharding helpers), a mapping is the wire
    encoding, and a spec passes through unchanged.
    """
    if privacy is None:
        if l is None:
            raise ValueError("resolve_privacy needs either a privacy spec or l")
        return FrequencyLDiversity(int(l))
    if isinstance(privacy, PrivacySpec):
        return privacy
    if isinstance(privacy, bool):
        raise ValueError(f"cannot interpret {privacy!r} as a privacy spec")
    if isinstance(privacy, int):
        return FrequencyLDiversity(privacy)
    if isinstance(privacy, Mapping):
        return privacy_from_dict(privacy)
    raise ValueError(f"cannot interpret {privacy!r} as a privacy spec")


# ------------------------------------------------------------------- enforce


def enforce_spec(
    table: Table, generalized: GeneralizedTable, spec: PrivacySpec
) -> tuple[GeneralizedTable, int]:
    """Post-anonymization repair: merge offending QI-groups until every group
    satisfies ``spec``.

    Returns ``(published, merges)``.  When every group already passes — the
    guaranteed case for the default frequency spec and for specs implied by
    the frequency guarantee — the *same* :class:`GeneralizedTable` object is
    returned with ``merges == 0``, so the default path stays bit-identical.

    Offending groups are merged with their neighbour in ascending group-id
    order (the same greedy repair as shard eligibility) and the published
    table is rebuilt from the merged partition against the source ``table``.
    The single-group fallback is exactly the spec's eligibility condition,
    so a table that passed :meth:`PrivacySpec.eligible` always repairs;
    :class:`~repro.errors.VerificationError` is raised otherwise.
    """
    groups = generalized.groups()
    sa_values = generalized.sa_values
    total = Counter(sa_values)
    clusters: list[tuple[list[int], Counter]] = []
    for group_id in sorted(groups):
        rows = list(groups[group_id])
        clusters.append((rows, Counter(sa_values[row] for row in rows)))
    if all(spec.check(histogram, total) for _, histogram in clusters):
        return generalized, 0

    merges = 0

    def merge_into_last(
        repaired: list[tuple[list[int], Counter]], cluster: tuple[list[int], Counter]
    ) -> None:
        nonlocal merges
        rows, histogram = repaired[-1]
        repaired[-1] = (rows + cluster[0], histogram + cluster[1])
        merges += 1

    while len(clusters) > 1:
        merged_any = False
        repaired: list[tuple[list[int], Counter]] = []
        for cluster in clusters:
            if repaired and not spec.check(repaired[-1][1], total):
                merge_into_last(repaired, cluster)
                merged_any = True
            else:
                repaired.append(cluster)
        if len(repaired) > 1 and not spec.check(repaired[-1][1], total):
            last = repaired.pop()
            merge_into_last(repaired, last)
            merged_any = True
        clusters = repaired
        if not merged_any:
            break
    if not all(spec.check(histogram, total) for _, histogram in clusters):
        raise VerificationError(
            f"published table cannot be repaired to satisfy {spec.describe()}: "
            "even fully merged groups violate it"
        )
    partition = Partition.trusted([rows for rows, _ in clusters], len(generalized))
    return GeneralizedTable.from_partition(table, partition), merges
