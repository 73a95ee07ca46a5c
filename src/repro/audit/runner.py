"""The audit run loop: generate, execute, shrink, bundle, report.

``run_audit`` drives N seeded trials; any failure is (optionally) shrunk
to a minimal reproducer and dumped as a replay bundle.  ``run_self_test``
injects the known mutants of :mod:`repro.audit.mutants` and verifies the
harness catches every one — the check that the checker itself works.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro import telemetry
from repro.audit.bench import AuditBench, get_bench
from repro.audit.cases import TrialCase
from repro.audit.checks import CheckResult
from repro.audit.generator import generate_case
from repro.audit.replay import ReplayBundle, write_bundle
from repro.audit.shrink import shrink_case
from repro.audit.trials import KINDS


@dataclass
class TrialOutcome:
    """One executed trial: the case plus every check it asserted."""

    case: TrialCase
    checks: list[CheckResult]
    seconds: float = 0.0

    @property
    def failed_checks(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    @property
    def passed(self) -> bool:
        return not self.failed_checks


def run_single_case(
    case: TrialCase, bench: AuditBench | None = None
) -> TrialOutcome:
    """Execute one case; an unhandled exception becomes a failed check
    (``<kind>.no-unhandled-error``) rather than aborting the run."""
    bench = bench if bench is not None else get_bench()
    start = time.perf_counter()
    try:
        checks = KINDS[case.kind].run(case, bench)
    except Exception as exc:  # noqa: BLE001 - converted into a finding
        checks = [
            CheckResult(
                name=f"{case.kind}.no-unhandled-error",
                passed=False,
                detail=f"{type(exc).__name__}: {exc}",
            )
        ]
    return TrialOutcome(
        case=case, checks=checks, seconds=time.perf_counter() - start
    )


@dataclass
class AuditReport:
    """Everything one audit run produced."""

    master_seed: int
    num_trials: int
    outcomes: list[TrialOutcome] = field(default_factory=list)
    shrunk: dict[int, TrialCase] = field(default_factory=dict)
    bundle_paths: list[Path] = field(default_factory=list)

    @property
    def failures(self) -> list[TrialOutcome]:
        return [o for o in self.outcomes if not o.passed]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def total_checks(self) -> int:
        return sum(len(o.checks) for o in self.outcomes)

    def summary(self) -> str:
        kinds = Counter(o.case.kind for o in self.outcomes)
        lines = [
            f"audit: seed={self.master_seed} trials={len(self.outcomes)} "
            f"checks={self.total_checks} failures={len(self.failures)}",
            "  trials by kind: "
            + ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())),
        ]
        for outcome in self.failures:
            lines.append(
                f"  FAILED trial {outcome.case.index} ({outcome.case.kind}):"
            )
            for check in outcome.failed_checks:
                lines.append(f"    {check}")
        for path in self.bundle_paths:
            lines.append(f"  replay bundle: {path}")
        return "\n".join(lines)


def run_audit(
    master_seed: int,
    num_trials: int,
    shrink: bool = False,
    bundle_dir: str | Path | None = None,
    log=None,
    kinds: tuple[str, ...] | None = None,
) -> AuditReport:
    """Run ``num_trials`` seeded trials; shrink and bundle any failure.

    ``kinds`` restricts the run to the given trial families, assigned
    round-robin over the indices (the default ``None`` keeps the full
    index schedule).  Case data still derives purely from
    ``(master_seed, index)``, so filtered runs replay the same way.
    """
    if kinds is not None:
        unknown = [k for k in kinds if k not in KINDS]
        if unknown:
            raise ValueError(f"unknown trial kinds {unknown}")
    bench = get_bench()
    report = AuditReport(master_seed=master_seed, num_trials=num_trials)
    with telemetry.span(
        "audit.run", seed=master_seed, trials=num_trials
    ):
        for index in range(num_trials):
            case = generate_case(
                master_seed,
                index,
                kind=kinds[index % len(kinds)] if kinds else None,
            )
            with telemetry.span(
                "audit.trial", kind=case.kind, index=index
            ):
                outcome = run_single_case(case, bench)
            telemetry.count("audit.trials.total")
            telemetry.count("audit.checks.total", len(outcome.checks))
            telemetry.count(
                "audit.checks.failed", len(outcome.failed_checks)
            )
            telemetry.observe("audit.trial.seconds", outcome.seconds)
            report.outcomes.append(outcome)
            if log is not None and index and index % 10 == 0:
                log(f"audit: {index}/{num_trials} trials")
            if outcome.passed:
                continue
            if log is not None:
                log(
                    f"audit: trial {index} ({case.kind}) FAILED: "
                    + "; ".join(c.name for c in outcome.failed_checks)
                )
            if shrink:
                minimal, spent = shrink_case(
                    case,
                    lambda c: not run_single_case(c, bench).passed,
                )
                report.shrunk[index] = minimal
                if log is not None:
                    log(
                        f"audit: shrank trial {index} in {spent} executions"
                    )
            if bundle_dir is not None:
                bundle = ReplayBundle(
                    master_seed=master_seed,
                    trial_index=index,
                    case=case,
                    shrunk=report.shrunk.get(index),
                    failed_checks=tuple(
                        c.name for c in outcome.failed_checks
                    ),
                )
                path = Path(bundle_dir) / (
                    f"audit-failure-s{master_seed}-t{index}.json"
                )
                report.bundle_paths.append(write_bundle(path, bundle))
    return report


# ---------------------------------------------------------------------------
# Self-test: the harness must catch every known mutant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MutantOutcome:
    """Baseline-clean + caught verdict for one injected bug."""

    name: str
    description: str
    baseline_clean: bool
    caught: bool

    @property
    def passed(self) -> bool:
        return self.baseline_clean and self.caught


@dataclass
class SelfTestReport:
    results: list[MutantOutcome]

    @property
    def num_caught(self) -> int:
        return sum(1 for r in self.results if r.caught)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def summary(self) -> str:
        lines = [
            f"self-test: {self.num_caught}/{len(self.results)} mutants caught"
        ]
        for r in self.results:
            verdict = (
                "caught"
                if r.passed
                else ("BASELINE DIRTY" if not r.baseline_clean else "MISSED")
            )
            lines.append(f"  [{verdict}] {r.name}: {r.description}")
        return "\n".join(lines)


def run_self_test(log=None) -> SelfTestReport:
    """Inject every known mutant; the harness must flag each one while
    staying green on the clean tree."""
    from repro.audit.mutants import MUTANTS

    bench = get_bench()
    results = []
    for mutant in MUTANTS:
        baseline_clean = all(
            run_single_case(case, bench).passed for case in mutant.cases
        )
        with mutant.patch():
            caught = any(
                not run_single_case(case, bench).passed
                for case in mutant.cases
            )
        results.append(
            MutantOutcome(
                name=mutant.name,
                description=mutant.description,
                baseline_clean=baseline_clean,
                caught=caught,
            )
        )
        if log is not None:
            log(f"self-test: {mutant.name}: " + ("caught" if caught else "MISSED"))
    return SelfTestReport(results=results)
