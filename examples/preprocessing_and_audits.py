"""Extensions in action: domain coarsening (Section 5.6) and privacy audits.

Part 1 sweeps the coarsening depth of the Section 5.6 preprocessing hybrid on
a high-dimensional census projection, showing the trade-off between the
number of stars and the width of the published non-star cells.

Part 2 audits the published tables against the other SA-aware principles
surveyed in Section 2 (entropy l-diversity, recursive (c,l)-diversity,
(alpha,k)-anonymity, t-closeness), illustrating how much stronger or weaker
they are than frequency l-diversity on the same output.

Run with::

    python examples/preprocessing_and_audits.py
"""

from __future__ import annotations

from repro.core import three_phase
from repro.core.preprocess import anonymize_with_coarsening
from repro.dataset.synthetic import CensusConfig, make_sal
from repro.metrics import gcp, kl_divergence
from repro.privacy import AlphaKAnonymity, EntropyLDiversity, RecursiveCLDiversity, TCloseness


def preprocessing_tradeoff(table, l: int = 6) -> None:
    from repro.core import hybrid

    print(f"== Section 5.6 coarsening trade-off (l={l}, d={table.dimension}, TP+ throughout) ==")
    plain = hybrid.anonymize(table, l)
    print(f"  no preprocessing : {plain.star_count:>7} stars, "
          f"GCP={gcp(plain.generalized):.3f}, "
          f"KL={kl_divergence(table, plain.generalized):.3f}")
    for depth in (3, 2, 1):
        result = anonymize_with_coarsening(table, l, depth=depth)
        print(f"  coarsen to depth {depth}: {result.star_count:>7} stars, "
              f"{result.subdomain_cell_count:>7} sub-domain cells, "
              f"GCP={gcp(result.generalized):.3f}, "
              f"KL={kl_divergence(table, result.generalized):.3f}")


def privacy_audits(table, l: int = 6) -> None:
    print(f"\n== auditing the TP output against other principles (l={l}) ==")
    generalized = three_phase.anonymize(table, l).generalized
    print(f"  frequency {l}-diverse      : {generalized.is_l_diverse(l)}")
    print(f"  entropy  {l}-diverse       : {EntropyLDiversity(l).check_generalized(generalized)}")
    print(f"  entropy  2-diverse        : {EntropyLDiversity(2).check_generalized(generalized)}")
    print(f"  recursive (3, 2)-diverse  : "
          f"{RecursiveCLDiversity(3.0, 2).check_generalized(generalized)}")
    print(f"  (1/{l}, {l})-anonymous       : "
          f"{AlphaKAnonymity(1 / l, l).check_generalized(generalized)}")
    for t in (0.5, 0.9, 0.95):
        print(f"  {t:.2f}-close               : {TCloseness(t).check_generalized(generalized)}")


def main() -> None:
    base = make_sal(6000, seed=11, config=CensusConfig.scaled(0.3))
    table = base.project(base.schema.qi_names[:5])
    preprocessing_tradeoff(table)
    privacy_audits(table)


if __name__ == "__main__":
    main()
