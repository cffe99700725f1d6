"""The three benchmark workloads: seed-generated inputs, one op, and its checks.

Each workload runs as a closed loop with one client. `prepare(i)` builds the
inputs of op i outside the timed region, `run(inputs)` is the timed op, and
`check(i, inputs, result)` returns the reasons op i is wrong (empty when it is
right). `check_run()` holds the checks made once per run, outside the loop.
The timed loop stops on a multiple of `cycle` ops, and not before
`min_cycles` cycles, so every run holds the same mix of op sizes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# criterion 5's spectrum: 30-point grid, eta = 1, nu0 = 0.3 kHz, 20 kHz FWHM
GRID_30 = np.sort(np.concatenate([
    np.linspace(-60.0, -50.0, 6), np.linspace(-6.0, 6.0, 16), [-20.0, 20.0],
    np.linspace(50.0, 60.0, 6)]))
NOISE_REL = 0.03


def _op_rng(seed: int, i: int):
    return np.random.default_rng([seed, i])


def _spectrum_inputs():
    from ramanpa.pa_kinetics import LorentzianLine, PulseParams

    return (LorentzianLine(eta_res=1.0, nu0=0.3, gamma=20.0),
            PulseParams(t_pa=5e-3, rho0=1.0e14, n0=9000.0))


class McBands:
    """One op is one `ratio_band_vs_omega` or `ratio_band_vs_delta` call at one point.

    Ops come in +delta / -delta mirror pairs sharing one sampling seed; one
    pair in five draws 20000 samples, the others 2000.
    """

    name = "mc_bands"
    cycle = 10
    min_cycles = 1

    def __init__(self, seed: int, tmp_dir: str):
        from ramanpa import uncertainty
        from ramanpa.config import RunConfig

        self.seed = seed
        self.uncertainty = uncertainty
        self.config = RunConfig()
        self.means: dict[int, tuple[float, float, int]] = {}

    def op_label(self, i: int) -> str:
        return f"{20000 if (i // 2) % 5 == 4 else 2000} samples"

    def prepare(self, i: int):
        pair = i // 2
        rng = _op_rng(self.seed, pair)
        omega = float(rng.uniform(0.0, 12.0))
        delta = float(rng.uniform(-3.0, 3.0)) * (1.0 if i % 2 == 0 else -1.0)
        spec = self.config.uncertainty_spec(seed=int(rng.integers(2**31)),
                                            n_samples=20000 if pair % 5 == 4 else 2000)
        return omega, delta, spec, pair % 2 == 0, (pair // 2) % 2 == 0

    def run(self, inputs):
        omega, delta, spec, on_omega_axis, interference = inputs
        if on_omega_axis:
            return self.uncertainty.ratio_band_vs_omega([omega], delta, spec,
                                                        interference=interference)
        return self.uncertainty.ratio_band_vs_delta([delta], omega, spec,
                                                    interference=interference)

    def check(self, i, inputs, band):
        mean, std, n = float(band.mean[0]), float(band.std[0]), inputs[2].n_samples
        if not (math.isfinite(mean) and math.isfinite(std)) or not 0.0 <= mean <= 1.0:
            return [f"mean {mean!r} / std {std!r} not finite or mean outside [0, 1]"]
        if i % 2 == 0:
            self.means[i] = (mean, std, n)
            return []
        m0, s0, _ = self.means.pop(i - 1)
        # mirror ops share their draws, so their means are correlated; (s0 + s) / sqrt(n)
        # bounds the standard error of the difference for any correlation
        limit = 5.0 * (s0 + std) / math.sqrt(n) + 1e-12
        if abs(mean - m0) > limit:
            return [f"mirror pair means {m0:.6f} / {mean:.6f} differ by more than {limit:.2e}"]
        return []

    def check_run(self):
        u = self.uncertainty
        zero = u.UncertaintySpec(omega_rel_sigma=0.0, delta_sigma=0.0, n_samples=100, seed=0)
        errors = []
        named = u.ratio_band_vs_omega([1.1, 8.0, 12.0], 0.0, zero)
        for got, want in zip(named.mean, (0.90, 0.14, 0.07)):
            if abs(got - want) >= 0.01:
                errors.append(f"zero-width landmark {got:.4f} not within 0.01 of {want}")
        deltas = np.linspace(0.0, 3.0, 7)
        asym = float(np.max(np.abs(u.ratio_band_vs_delta(deltas, 5.4, zero).mean
                                   - u.ratio_band_vs_delta(-deltas, 5.4, zero).mean)))
        if not asym < 1e-12:
            errors.append(f"zero-width mirror asymmetry {asym:.2e} not below 1e-12")
        return errors

    def diagnostics(self):
        return {}


class LossAnalysis:
    """One op is one simulated experiment: mixture losses, spectrum, CSV round trip, fit."""

    name = "loss_analysis"
    cycle = 1
    min_cycles = 1
    T_PA = 0.01
    RHO0 = 1.0e14
    COUNTS = np.array([1200.0, 7000.0, 1100.0])

    def __init__(self, seed: int, tmp_dir: str):
        from ramanpa import pa_kinetics, spectra

        self.seed = seed
        self.pk = pa_kinetics
        self.sp = spectra
        self.line, self.pulse = _spectrum_inputs()
        self.csv_path = os.path.join(tmp_dir, "spectrum.csv")
        self.etas: dict[int, float] = {}  # by op, so a replayed op counts once
        self.conservation_max = 0.0
        self.edge_loss_max = 0.0
        self.criterion6_edges = None

    def op_label(self, i: int) -> str:
        return "pure m0" if i % 10 == 9 else "mixture"

    def prepare(self, i: int):
        rng = _op_rng(self.seed, i)
        counts = self.COUNTS * rng.uniform(0.8, 1.2, 3)
        if i % 10 == 9:
            counts[0] = counts[2] = 0.0
        m0_loss = float(rng.uniform(0.6, 0.9))
        return counts, m0_loss, int(rng.integers(2**31)), i % 4 == 3

    def run(self, inputs):
        counts, m0_loss, noise_seed, with_stderr = inputs
        pk, sp = self.pk, self.sp
        frac0 = counts[1] / counts.sum()
        k00 = pk.invert_remaining_fraction(1.0 - m0_loss) / (self.T_PA * frac0 * self.RHO0)
        pulse = pk.PulseParams(t_pa=self.T_PA, rho0=self.RHO0, n0=float(counts.sum()))
        series = pk.simulate_mixture(pk.MixtureState(counts=tuple(counts)), k00, pulse,
                                     dt=self.T_PA / 2000.0)
        spectrum = sp.synthesize_spectrum(self.line, self.pulse, GRID_30, NOISE_REL,
                                          noise_seed, include_stderr=with_stderr)
        sp.write_spectrum_csv(self.csv_path, spectrum)
        fit = sp.fit_spectrum(sp.read_spectrum_csv(self.csv_path))
        return k00, series, fit

    def check(self, i, inputs, result):
        counts, m0_loss, _, _ = inputs
        k00, series, fit = result
        errors = []
        atoms = series.counts.sum(axis=1) + 2.0 * (series.events_00 + series.events_pm)
        rel = float(np.max(np.abs(atoms - atoms[0])) / atoms[0])
        self.conservation_max = max(self.conservation_max, rel)
        if not rel <= 1e-9:
            errors.append(f"atom bookkeeping drifts by {rel:.2e} relative")
        losses = 1.0 - np.divide(series.counts[-1], counts, out=np.zeros(3), where=counts > 0)
        if abs(losses[1] - m0_loss) >= 0.005:
            errors.append(f"m0 loss {losses[1]:.4f} misses the calibrated {m0_loss:.4f}")
        if counts[0] == 0.0:
            eta = k00 * self.RHO0 * self.T_PA
            oracle = self.pk.remaining_fraction_oracle(eta, 400)
            if not abs((1.0 - losses[1]) - oracle) <= 1e-9:
                errors.append(f"pure-m0 fraction {1.0 - losses[1]!r} vs oracle {oracle!r}")
        else:
            self.edge_loss_max = max(self.edge_loss_max, float(losses[0]), float(losses[2]))
        params = (fit.n0, fit.eta_res, fit.nu0, fit.gamma)
        if not fit.converged or not all(math.isfinite(p) for p in params):
            errors.append(f"fit not converged or not finite: {params!r}")
        else:
            self.etas[i] = fit.eta_res
        return errors

    def check_run(self):
        """Test the run's recovered eta against criterion 5's statistics.

        Criterion 5 bounds the mean bias by 2 % and asks for >= 95 % of fits
        within 10 % of the truth, over 100 spectra. A run holds fewer fits, so
        it fails only when its fits are inconsistent with those bounds at the
        1e-3 level: a one-sided z test on the mean and a binomial tail on the
        count within 10 %.
        """
        self.criterion6_edges = self._criterion6_edge_losses()
        etas = np.array(list(self.etas.values()))
        n = etas.size
        if n < 2:
            return []
        bias = abs(float(np.mean(etas)) - 1.0)
        se = float(np.std(etas, ddof=1)) / math.sqrt(n)
        within = int(np.sum(np.abs(etas - 1.0) <= 0.10))
        p_low = sum(math.comb(n, k) * 0.95**k * 0.05**(n - k) for k in range(within + 1))
        errors = []
        if bias - 3.09 * se > 0.02:
            errors.append(f"mean eta bias {bias:.4f} (se {se:.4f}) exceeds 2 %")
        if p_low < 1e-3:
            errors.append(f"{within}/{n} fits within 10 % is below 95 % (p = {p_low:.1e})")
        return errors

    def _criterion6_edge_losses(self):
        """Edge losses of criterion 6's own mixture; reported, never counted as failed."""
        pk = self.pk
        frac0 = self.COUNTS[1] / self.COUNTS.sum()
        k00 = pk.invert_remaining_fraction(0.21) / (self.T_PA * frac0 * self.RHO0)
        pulse = pk.PulseParams(t_pa=self.T_PA, rho0=self.RHO0, n0=float(self.COUNTS.sum()))
        series = pk.simulate_mixture(pk.MixtureState(counts=tuple(self.COUNTS)), k00, pulse,
                                     dt=self.T_PA / 2000.0)
        losses = 1.0 - series.counts[-1] / self.COUNTS
        return [round(float(losses[0]), 3), round(float(losses[2]), 3)]

    def diagnostics(self):
        etas = np.array(list(self.etas.values()))
        return {
            "pa_kinetics.mixture.conservation_max_rel": self.conservation_max,
            "pa_kinetics.mixture.edge_loss_max": self.edge_loss_max,
            "eta_mean": float(np.mean(etas)) if etas.size else float("nan"),
            "eta_within_10pct": f"{int(np.sum(np.abs(etas - 1.0) <= 0.10))}/{etas.size}",
            "criterion6_edge_losses": self.criterion6_edges,
        }


# ratio-sweep takes about 2 s and the other verbs under 1 s, mixture-sim the
# longest of those. With four ratio-sweeps and two mixture-sims in a cycle of
# ten, the median falls inside the mixture-sims and, from 3 cycles on, the
# tail (10 ops beyond it) inside the ratio-sweeps, instead of on the gap
# between two verbs, where it would jump from run to run. A run therefore
# holds at least 3 cycles, even when they take longer than --seconds.
CYCLE = ("bands", "ratio-sweep", "coeffs", "ratio-sweep", "mixture-sim", "simulate",
         "ratio-sweep", "fit", "ratio-sweep", "mixture-sim")
EXPECTED = {
    "bands": ("bands.csv", "bands.json", "bands.svg"),
    "coeffs": ("coeffs.csv", "coeffs.json", "coeffs.svg"),
    "simulate": ("spectrum_superposition.csv", "simulate_superposition.json",
                 "spectrum_superposition.svg"),
    "fit": ("fit_result.txt", "fit_result.json", "spectrum_normalized.csv", "fit.svg"),
    "mixture-sim": ("mixture_timeseries.csv", "mixture_summary.json",
                    "mixture_timeseries.svg"),
    "ratio-sweep": ("ratio_band.csv", "ratio_nominal.csv", "ratio_sweep.json",
                    "ratio_sweep.svg"),
}


def _num(x: float) -> str:
    return f"{x:.3f}"


class CliSession:
    """One op is one `python -m ramanpa.cli` invocation into a fresh out-dir.

    The six verbs run in `CYCLE`; each verb draws its arguments from a pool of
    two seed-derived sets, so every argument set recurs within a run and its
    output bytes are compared with its first occurrence. The two ratio-sweep
    sets differ in axis, so successive ratio-sweeps alternate it. Flags that
    may carry a negative value are passed as `--flag=value`, because argparse
    reads a separate leading `-2.5,...` as an unknown option.
    """

    name = "cli_session"
    cycle = len(CYCLE)
    min_cycles = 3
    POOL = 2

    def __init__(self, seed: int, tmp_dir: str):
        from ramanpa.spectra import synthesize_spectrum, write_spectrum_csv

        self.tmp = tmp_dir
        self.traced = False
        self.first: dict[tuple, dict] = {}
        self.peak_rss_kib = 0
        self.bytes_written: list[int] = []
        self.spans: list = []
        self.env = dict(os.environ)
        self.env.pop("RAMANPA_CONFIG", None)
        self.env["PYTHONPATH"] = SRC + os.pathsep + self.env.get("PYTHONPATH", "")
        rng = np.random.default_rng(seed)
        line, pulse = _spectrum_inputs()
        self.pool = {verb: [] for verb in EXPECTED}
        for k in range(self.POOL):
            omega, delta = _num(rng.uniform(0.0, 12.0)), _num(rng.uniform(-1.0, 1.0))
            self.pool["bands"].append(["bands", f"--omega={omega}", f"--delta={delta}"])
            shift = rng.uniform(-0.1, 0.1)
            deltas = ",".join(_num(d) for d in np.linspace(-2.5, 2.5, 21) + shift)
            self.pool["coeffs"].append(["coeffs", f"--omega={_num(rng.uniform(1.0, 12.0))}",
                                        f"--delta-list={deltas}"])
            self.pool["simulate"].append(
                ["simulate", "--mode", "superposition", f"--omega={_num(rng.uniform(0, 12))}",
                 f"--delta={_num(rng.uniform(-1, 1))}", "--noise", "0.03",
                 "--seed", str(int(rng.integers(1000)))])
            path = os.path.join(tmp_dir, f"spectrum_{k}.csv")
            write_spectrum_csv(path, synthesize_spectrum(
                line, pulse, GRID_30, NOISE_REL, int(rng.integers(2**31)),
                include_stderr=k % 2 == 1))
            self.pool["fit"].append(["fit", path])
            counts = ",".join(_num(c) for c in LossAnalysis.COUNTS * rng.uniform(0.8, 1.2, 3))
            self.pool["mixture-sim"].append(["mixture-sim", f"--counts={counts}",
                                             "--dt", "0.0025"])
            axis = ("omega", "delta")[k % 2]
            nominal = (f"--delta={_num(rng.uniform(-1, 1))}" if axis == "omega"
                       else f"--omega={_num(rng.uniform(2, 10))}")
            self.pool["ratio-sweep"].append(
                ["ratio-sweep", "--axis", axis, nominal, "--points", "25", "--samples", "500",
                 "--seed", str(int(rng.integers(1000)))])

    def op_label(self, i: int) -> str:
        return CYCLE[i % self.cycle]

    def _args_key(self, i: int):
        """(verb, pool index): the n-th run of a verb in the session uses set n mod 2."""
        verb, pos = CYCLE[i % self.cycle], i % self.cycle
        nth = (i // self.cycle) * CYCLE.count(verb) + CYCLE[:pos].count(verb)
        return verb, nth % self.POOL

    def prepare(self, i: int):
        verb, k = self._args_key(i)
        argv = self.pool[verb][k]
        op_dir = tempfile.mkdtemp(prefix="op", dir=self.tmp)
        out_dir = os.path.join(op_dir, "out")
        argv = argv + ["--format", "csv,json,svg", f"--out-dir={out_dir}"]
        if self.traced:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"),
                   os.path.join(op_dir, "spans.json"), *argv]
        else:
            cmd = [sys.executable, "-m", "ramanpa.cli", *argv]
        return cmd, op_dir, out_dir

    def run(self, inputs):
        cmd, op_dir, _ = inputs
        err_path = os.path.join(op_dir, "stderr.txt")
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                    env=self.env, cwd=op_dir)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    def check(self, i, inputs, result):
        cmd, op_dir, out_dir = inputs
        code, rss_kib = result
        self.peak_rss_kib = max(self.peak_rss_kib, rss_kib)
        try:
            with open(os.path.join(op_dir, "stderr.txt"), encoding="utf-8",
                      errors="replace") as fh:
                stderr = fh.read()
            errors = []
            if code != 0:
                errors.append(f"exit code {code}")
            if "Traceback" in stderr:
                errors.append("Traceback on stderr")
            verb, k = self._args_key(i)
            files = {}
            for name in EXPECTED[verb]:
                path = os.path.join(out_dir, name)
                if not os.path.isfile(path):
                    errors.append(f"{verb}: missing {name}")
                    continue
                with open(path, "rb") as fh:
                    files[name] = fh.read()
            if self.traced and os.path.isdir(out_dir):
                self.bytes_written.append(sum(
                    os.stat(os.path.join(out_dir, f)).st_size for f in os.listdir(out_dir)))
            reference = self.first.setdefault((verb, k), files)
            if files != reference:
                errors.append(f"{verb}: output bytes differ from the first run of its arguments")
            if self.traced and os.path.isfile(os.path.join(op_dir, "spans.json")):
                with open(os.path.join(op_dir, "spans.json"), encoding="utf-8") as fh:
                    self._merge(json.load(fh), i)
            if errors:
                sys.stderr.write(stderr[-2000:])
            return errors
        finally:
            shutil.rmtree(op_dir, ignore_errors=True)

    def _merge(self, spans, op):
        offset = len(self.spans)
        for span in spans:
            span[3] = span[3] + offset if span[3] >= 0 else -1
            span[4] = op
            self.spans.append(span)

    def check_run(self):
        return []

    def diagnostics(self):
        return {}


WORKLOADS = {w.name: w for w in (McBands, LossAnalysis, CliSession)}
