"""An epidemiological study over a synthetic outbreak (§2.1).

Plays the role of the vetted analyst through
:class:`repro.core.analyst.Analyst`: previews what each of the paper's
catalog queries (secondary infections by age group, household vs
non-household attack rates, attack rates by disease stage) will cost,
asks them over one epidemic, each charged against the shared privacy
budget, and compares the noisy releases with the ground truth the
analyst never sees.

Run:  python examples/epidemic_study.py
"""

import random

from repro.core.analyst import Analyst
from repro.core.system import MyceliumSystem
from repro.params import SystemParameters
from repro.query.builtins import STAGE_NAMES
from repro.query.catalog import CATALOG
from repro.query.schema import scaled_schema
from repro.workloads.attributes import infection_rate
from repro.workloads.epidemic import EpidemicConfig, run_epidemic
from repro.workloads.graphgen import generate_household_graph


def build_outbreak(rng: random.Random):
    graph = generate_household_graph(
        24, degree_bound=3, rng=rng, external_contacts=1
    )
    run_epidemic(graph, rng, EpidemicConfig(seed_fraction=0.1))
    for u in range(graph.num_vertices):
        for v in graph.neighbors(u):
            edge = graph.edge(u, v)
            edge["duration"] = min(edge["duration"], 20)
            edge["contacts"] = min(edge["contacts"], 8)
    return graph


def main() -> None:
    rng = random.Random(7)
    graph = build_outbreak(rng)
    print(
        f"outbreak: {graph.num_vertices} participants, "
        f"{infection_rate(graph):.0%} infected"
    )

    params = SystemParameters(
        num_devices=graph.num_vertices,
        degree_bound=3,
        hops=2,
        committee_size=3,
        replicas=2,
        forwarder_fraction=0.3,
    )
    system = MyceliumSystem.setup(
        num_devices=graph.num_vertices,
        rng=rng,
        params=params,
        schema=scaled_schema(),
        committee_size=3,
        committee_threshold=2,
        total_epsilon=6.0,
    )
    analyst = Analyst(system, name="epidemiologist")

    def ask(qid: str):
        """Preview a catalog query, then spend the budget on it."""
        entry = CATALOG[qid]
        preview = analyst.preview(entry, epsilon=1.5)
        print(f"\n== {entry.qid}: {entry.description}")
        print(
            f"  preview: sensitivity {preview.sensitivity:g}, noise scale "
            f"{preview.noise_scale:.2f}, "
            f"{preview.ciphertexts_per_contribution} ciphertext(s) per "
            f"contribution, affordable={preview.affordable}"
        )
        truth = system.plaintext_answer(entry, graph)
        return truth, analyst.ask(entry, graph, epsilon=1.5)

    # -- Q6: secondary infections by age group --------------------------------
    truth, result = ask("Q6")
    for decade in range(10):
        true_total = sum(
            v * c for v, c in enumerate(truth.histograms[decade].counts)
        )
        noisy_total = sum(
            v * c for v, c in enumerate(result.groups[decade].counts)
        )
        if true_total or abs(noisy_total) > 1:
            print(
                f"  ages {decade * 10}-{decade * 10 + 9}: "
                f"true secondary infections {true_total:.0f}, "
                f"released {noisy_total:+.1f}"
            )

    # -- Q8: household vs non-household attack rates ---------------------------
    truth, result = ask("Q8")
    for group, label in enumerate(("non-household", "household")):
        print(
            f"  {label}: true clipped rate-sum {truth.gsums[group]:.2f}, "
            f"released {result.values[group]:+.2f}"
        )

    # -- Q10: attack rates by disease stage ------------------------------------
    truth, result = ask("Q10")
    for group, label in enumerate(STAGE_NAMES):
        print(
            f"  {label}: true clipped rate-sum {truth.gsums[group]:.2f}, "
            f"released {result.values[group]:+.2f}"
        )

    print("\nstudy summary:")
    for row in analyst.study_summary():
        print(
            f"  eps {row['epsilon']:.1f}  sensitivity {row['sensitivity']:g}  "
            f"{row['contributing']} contributing / {row['rejected']} rejected"
            f"  {row['query']}"
        )
    print(
        f"budget: {analyst.remaining_budget:.1f} of "
        f"{system.budget.total_epsilon:.1f} left — "
        f"{analyst.queries_left(1.5)} more query(ies) at epsilon 1.5"
    )


if __name__ == "__main__":
    main()
