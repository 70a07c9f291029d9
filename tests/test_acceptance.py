"""Acceptance gate: one test per advertised guarantee, each printing a
single CRITERION line (visible with -s or -rP; the -v test line itself also
carries the verdict).  Tolerances are pinned here and must not be loosened."""
import math
import time

import numpy as np
import pytest

import hyperorlicz as hz
from hyperorlicz.operators import translated_weight

RNG_SEED = 20260822


def _criterion(num: int, description: str, ok: bool, details: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{details}]" if details else ""
    print(f"CRITERION {num:02d} {status}: {description}{suffix}", flush=True)
    assert ok, f"criterion {num:02d} failed: {description}{suffix}"


def _random_function(rng, labels, max_support=5, scale=2.0):
    count = int(rng.integers(1, max_support + 1))
    chosen = rng.choice(len(labels), size=count, replace=False)
    values = {int(labels[i]): float(rng.uniform(-scale, scale))
              for i in chosen}
    f = hz.SparseFunction.from_dict(values)
    return f if not f.is_zero() else hz.indicator([int(labels[0])])


def test_criterion_01_axioms(capsys):
    t0 = time.perf_counter()
    violations = []
    for model in (hz.dunkl_ramirez(0.3, 32), hz.dunkl_ramirez(0.5, 32),
                  hz.su2(32)):
        violations += model.verify_axioms(12)
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 5.0
    with capsys.disabled():
        _criterion(1, "hypergroup axioms at B=32, triple bound 12", ok,
                   f"{len(violations)} violations, {elapsed:.2f}s")


def test_criterion_02_haar_invariance(all_models, capsys):
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    checked = 0
    for model in all_models.values():
        # supports kept within [0..8]: the tolerance is absolute and the
        # spread families grow their haar weights geometrically
        labels = list(range(0, 9))
        for _ in range(20):
            f = _random_function(rng, labels)
            base = hz.integrate_haar(model, f)
            for y in range(0, 9):
                if not model.translate_reach_ok(f.support(), y):
                    continue
                shifted = hz.integrate_haar(model, hz.translate(model, f, y))
                worst = max(worst, abs(shifted - base))
                checked += 1
    formulas_ok = True
    for r in range(0, 33):
        for a, model in ((0.3, all_models["dr03"]), (0.5, all_models["dr05"])):
            expected = 1.0 if r == 0 else (1 - a) / a**r
            formulas_ok &= abs(model.haar[r] / expected - 1.0) <= 1e-12
        formulas_ok &= all_models["su2"].haar[r] == float((r + 1) ** 2)
    ok = worst <= 1e-10 and formulas_ok and checked >= 4 * 20 * 9 - 1
    with capsys.disabled():
        _criterion(2, "Haar right-invariance and closed-form weights", ok,
                   f"max deviation {worst:.2e} over {checked} probes")


def test_criterion_03_orlicz_closed_forms(all_models, capsys):
    rng = np.random.default_rng(RNG_SEED + 1)
    labels = list(range(0, 9))
    worst_closed = 0.0
    sandwich_ok = True
    for model in all_models.values():
        for p in (1.0, 2.0, 3.0):
            phi = hz.phi_p(p)
            for _ in range(50):
                f = _random_function(rng, labels)
                lux = hz.luxemburg_norm(model, f, phi).value
                lp = sum(abs(v) ** p * model.haar[x] for x, v in f.values)
                closed = p ** (-1.0 / p) * lp ** (1.0 / p)
                worst_closed = max(worst_closed,
                                   abs(lux - closed) / max(1.0, closed))
                ame = hz.orlicz_norm(model, f, phi).value
                # 1e-9 applied relative to the norm scale: dr03 haar weights
                # reach 1e4, so an absolute reading sits below float noise
                slack = 1e-9 * max(1.0, lux)
                sandwich_ok &= lux <= ame + slack and ame <= 2 * lux + slack
    # Jensen: the convolution of two point masses is a probability measure,
    # so the convex gauge of the averaged value stays below the averaged gauge
    jensen_min = math.inf
    phi2 = hz.phi_p(2.0)
    for model in all_models.values():
        f = hz.SparseFunction.from_dict(
            {x: 1.0 / (1 + abs(x)) for x in model.carrier if abs(x) <= 10})
        for x in model.carrier:
            for y in model.carrier:
                mu = model.raw_convolve_points(x, y)
                mean = sum(f.value_at(u) * m for u, m in mu.atoms)
                spread = sum(phi2(f.value_at(u)) * m
                             for u, m in mu.atoms)
                jensen_min = min(jensen_min, spread - phi2(mean))
    ok = worst_closed <= 1e-8 and sandwich_ok and jensen_min >= -1e-12
    with capsys.disabled():
        _criterion(3, "gauge-norm closed forms, sandwich, Jensen residual",
                   ok, f"closed-form dev {worst_closed:.2e}, "
                       f"Jensen min {jensen_min:.2e}")


def test_criterion_04_center_translation_invariance(dr05, zline, capsys):
    rng = np.random.default_rng(RNG_SEED + 2)
    phis = (hz.phi_p(1.0), hz.phi_p(2.0), hz.cosh_minus_one())
    worst = 0.0
    for model in (dr05, zline):
        labels = list(range(0, 13))
        for _ in range(50):
            f = _random_function(rng, labels)
            fz = hz.translate(model, f, 1)
            for phi in phis:
                a = hz.luxemburg_norm(model, f, phi).value
                b = hz.luxemburg_norm(model, fz, phi).value
                worst = max(worst, abs(a - b))
    ok = worst <= 1e-9
    with capsys.disabled():
        _criterion(4, "gauge norm invariant under central translation", ok,
                   f"max deviation {worst:.2e}")


def test_criterion_05_single_step_norm_bound(all_models, capsys):
    rng = np.random.default_rng(RNG_SEED + 3)
    phis = (hz.phi_p(1.0), hz.phi_p(2.0), hz.cosh_minus_one())
    violations = 0
    for model in all_models.values():
        signed = model.carrier[0] < 0
        labels = list(range(0, 9))
        for i in range(100):
            f = _random_function(rng, labels)
            a = int(rng.integers(-8, 9)) if signed else int(rng.integers(0, 9))
            kind = i % 3
            if kind == 0:
                w = hz.constant_weight(float(rng.uniform(0.2, 3.0)))
            elif kind == 1:
                w = hz.step_weight(int(rng.integers(-4, 5)),
                                   float(rng.uniform(0.2, 3.0)),
                                   float(rng.uniform(0.2, 3.0)))
            else:
                w = hz.table_weight(
                    {int(x): float(rng.uniform(0.2, 3.0))
                     for x in rng.integers(-8, 9, size=6)},
                    default=float(rng.uniform(0.5, 1.5)))
            phi = phis[i % 3]
            lhs = hz.luxemburg_norm(
                model, hz.apply_single_step(model, f, a, w), phi).value
            rhs = (w.sup_over(model.carrier)
                   * hz.luxemburg_norm(model, f, phi).value)
            if lhs > rhs + 1e-9:
                violations += 1
    ok = violations == 0
    with capsys.disabled():
        _criterion(5, "single-step operator norm bounded by sup weight", ok,
                   f"{violations} violations over 400 triples")


def test_criterion_06_iterate_consistency(zline, capsys):
    rng = np.random.default_rng(RNG_SEED + 4)
    eta = hz.center_powers(zline, 1)
    mismatches = 0
    for _ in range(25):
        w = hz.table_weight({int(x): float(rng.uniform(0.3, 2.5))
                             for x in range(-30, 31)},
                            default=float(rng.uniform(0.5, 2.0)))
        f = _random_function(rng, list(range(-8, 9)))
        for n in range(1, 13):
            lam = hz.apply_weighted_translation(zline, f, w, eta, n)
            itr = hz.iterate_single_step(zline, f, 1, w, n)
            if lam.values != itr.values:
                mismatches += 1
    ok = mismatches == 0
    with capsys.disabled():
        _criterion(6, "step operator equals iterated single step atom-exactly",
                   ok, f"{mismatches} mismatches over 25x12 runs")


def test_criterion_07_inverse_identities(dr05, zline, capsys):
    rng = np.random.default_rng(RNG_SEED + 5)
    worst = 0.0
    for model in (zline, dr05):
        signed = model.carrier[0] < 0
        labels = list(range(-8, 9)) if signed else list(range(0, 13))
        eta = hz.center_powers(model, 1)
        for _ in range(10):
            w = hz.table_weight({int(x): float(rng.uniform(0.3, 2.5))
                                 for x in labels},
                                default=float(rng.uniform(0.5, 2.0)))
            f = _random_function(rng, labels)
            for n in range(0, 11):
                back = hz.apply_weighted_translation(
                    model, hz.apply_right_inverse(model, f, w, eta, n),
                    w, eta, n)
                fwd = hz.apply_right_inverse(
                    model, hz.apply_weighted_translation(model, f, w, eta, n),
                    w, eta, n)
                for x, v in f.values:
                    worst = max(worst, abs(back.value_at(x) - v),
                                abs(fwd.value_at(x) - v))
    ok = worst <= 1e-12
    with capsys.disabled():
        _criterion(7, "right inverse composes to the identity both ways", ok,
                   f"max atom deviation {worst:.2e}")


def test_criterion_08_aperiodicity_golden_values(zline, dr05, su2m, capsys):
    results = []
    v1 = hz.aperiodic_sequence_check(zline, hz.center_powers(zline, 1),
                                     range(-2, 3), horizon=16)
    results.append(v1.holds_at_horizon and v1.first_n == 5)
    eta_dr = hz.eta_from_table(dr05, {n: n for n in range(1, 17)})
    v2 = hz.aperiodic_sequence_check(dr05, eta_dr, [0, 1, 2], horizon=16)
    results.append(v2.holds_at_horizon and v2.first_n == 3)
    eta_su = hz.eta_from_table(su2m, {n: n for n in range(1, 17)})
    v3 = hz.aperiodic_sequence_check(su2m, eta_su, [0, 1], horizon=16)
    results.append(v3.holds_at_horizon and v3.first_n == 3)
    eta_const = hz.eta_from_table(su2m, {n: 1 for n in range(1, 65)})
    v4 = hz.aperiodic_sequence_check(su2m, eta_const, [0, 1], horizon=64)
    results.append(not v4.holds_at_horizon)
    ok = all(results)
    with capsys.disabled():
        _criterion(8, "aperiodicity first indices 5/3/3 and constant failure",
                   ok, f"first indices {v1.first_n}/{v2.first_n}/{v3.first_n}, "
                       f"constant holds={v4.holds_at_horizon}")


def test_criterion_09_doubling_shift_end_to_end(zline, doubling_weight,
                                                capsys):
    t0 = time.perf_counter()
    eta = hz.center_powers(zline, 1)
    phi2 = hz.phi_p(2.0)
    problems = []
    center = hz.probe_center_conditions(zline, doubling_weight, eta, phi2,
                                        [0], horizon=20)
    if center.verdict != "holds_empirically":
        problems.append("center probe did not hold")
    for row in center.rows:
        for name in ("sup_reciprocal", "sup_shifted"):
            if abs(row.metric(name) - 2.0**-row.n) > 1e-12:
                problems.append(f"center row {row.n} {name}")
    hered = hz.probe_hereditary(zline, 1, doubling_weight, phi2, [0],
                                horizon=20)
    if hered.verdict != "holds_empirically":
        problems.append("hereditary probe did not hold")
    for row in hered.rows:
        for name in ("sup_forward", "sup_backward"):
            if abs(row.metric(name) - 2.0**-row.n) > 1e-12:
                problems.append(f"hereditary row {row.n} {name}")
    chi0 = hz.indicator([0])
    witness = hz.build_transitivity_witness(zline, chi0, chi0,
                                            doubling_weight, eta, phi2,
                                            k_max=20, horizon=20)
    for row in witness.rows:
        expected = 2.0**-row.n / math.sqrt(2.0)
        if abs(row.err_target - expected) > 1e-9 * max(1.0, expected):
            problems.append(f"witness row {row.n}")
    if witness.rows[-1].n != 20:
        problems.append("witness did not reach n=20")
    for c in (1.0, 2.0, 0.5):
        flat = hz.probe_center_conditions(zline, hz.constant_weight(c), eta,
                                          phi2, [0], horizon=16)
        if flat.verdict != "fails":
            problems.append(f"constant weight {c} center verdict")
        flat_h = hz.probe_hereditary(zline, 1, hz.constant_weight(c), phi2,
                                     [0], horizon=16)
        if flat_h.verdict != "fails":
            problems.append(f"constant weight {c} hereditary verdict")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.2f}s")
    ok = not problems
    with capsys.disabled():
        _criterion(9, "doubling-shift probes, witness errors, flat failures",
                   ok, "; ".join(problems) if problems else
                   f"witness n=10 err {witness.rows[9].err_target:.4e}, "
                   f"{elapsed:.2f}s")


def test_criterion_10_necessary_probes(zline, doubling_weight, capsys):
    eta = hz.center_powers(zline, 1)
    problems = []
    sup = hz.probe_sup_necessary(zline, doubling_weight, eta, [0], horizon=20)
    if sup.verdict != "holds_empirically":
        problems.append("sup-criterion probe did not hold")
    series = hz.probe_series_necessary(zline, doubling_weight, eta,
                                       [0], horizon=10, series_cutoff=5)
    if series.verdict != "holds_empirically":
        problems.append("series probe did not hold")
    for row in series.rows:
        bound = 2.0 * 2.0**-row.n / (1.0 - 2.0**-row.n)
        if row.metric("combined") > bound + 1e-12:
            problems.append(f"series tail bound at n={row.n}")
    flat_sup = hz.probe_sup_necessary(zline, hz.constant_weight(1.0), eta,
                                      [0], horizon=20)
    flat_series = hz.probe_series_necessary(zline, hz.constant_weight(1.0),
                                            eta, [0], horizon=10,
                                            series_cutoff=5)
    if flat_sup.verdict != "fails" or flat_series.verdict != "fails":
        problems.append("flat weight did not fail")
    ok = not problems
    with capsys.disabled():
        _criterion(10, "necessary-condition probes with geometric tail bound",
                   ok, "; ".join(problems) if problems else
                   f"series final {series.rows[-1].metric('combined'):.3e}")


def test_criterion_11_determinism(tmp_path, capsys):
    import yaml

    from hyperorlicz import cli
    data = {
        "id": "determinism",
        "hypergroup": {"family": "integers", "window": 64},
        "young": {"kind": "phi_p", "p": 2.0},
        "weight": {"form": "step", "threshold": 0, "low": 2.0, "high": 0.5},
        "eta": {"generator": "center_powers", "z": 1},
        "sets": {"E": [0]},
        "functions": {"f": {0: 1.0}, "g": {0: 1.0}},
        "run": {"horizon": 12, "k_max": 8, "series_cutoff": 5,
                "triple_bound": 6},
    }
    path = tmp_path / "sc.yaml"
    path.write_text(yaml.safe_dump(data))
    ok = True
    for command, extra in (("axioms", []), ("haar", ["--seed", "3"]),
                           ("probe", ["--args", "id=center"]),
                           ("witness", [])):
        bodies = []
        for k in range(2):
            out = tmp_path / f"{command}-{k}.txt"
            code = cli.main(["--scenario", str(path), "--command", command,
                             "--out", str(out)] + extra)
            ok = ok and code == 0
            bodies.append(out.read_text().split("\n", 1)[1])
        ok = ok and bodies[0] == bodies[1]
    with capsys.disabled():
        _criterion(11, "byte-identical report bodies across reruns", ok)
