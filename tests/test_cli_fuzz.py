"""Fuzzed flag values and input files: a documented exit code, never a traceback.

Each example calls `main(argv)` in process with flag values drawn from zero,
negative, finite, huge, nan and inf values, and checks that it returns 0, 1,
2 or 3, raises nothing, and writes no nan or inf into any output file. Size
flags draw only invalid values or small valid ones, so no example is a valid
but huge run. The file examples write a valid file with up to four edits (a
BOM, CRLF, NUL, high or arbitrary bytes, a drawn number in place of a numeric
field) as the spectrum CSV of `fit` and the config file of `bands`: those must
exit 0, 2 or 3 with no exception or warning.
"""
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ramanpa.cli as cli
from ramanpa.pa_kinetics import LorentzianLine, PulseParams
from ramanpa.spectra import synthesize_spectrum, write_spectrum_csv

NUMBERS = st.one_of(
    st.sampled_from(["0", "-0.0", "-1", "-2.5", "0.5", "5.4", "12", "1e6", "2e6", "1e300",
                     "1.75e308", "-1e300", "1e-300", "nan", "-nan", "inf", "-inf", "1e999", "x"]),
    st.floats(min_value=-20.0, max_value=20.0).map(repr),
)
INTEGERS = st.sampled_from(["0", "5", "-1", str(10**30), "nan", "1.5"])


def sizes(valid, invalid):
    """A size flag: a small valid value or an invalid one, never a large valid one."""
    return st.sampled_from([str(v) for v in (*valid, *invalid)])


def flags(**strategies):
    """argv fragment: each flag present or not; `True` marks a switch."""
    parts = []
    for name, strategy in strategies.items():
        flag = "--" + name.replace("_", "-")
        value = st.just([flag]) if strategy is True else strategy.map(lambda v, f=flag: [f"{f}={v}"])
        parts.append(st.one_of(st.just([]), value))
    return st.tuples(*parts).map(lambda chunks: [a for chunk in chunks for a in chunk])


def number_list(n):
    return st.lists(NUMBERS, min_size=n, max_size=n).map(",".join)


VERBS = {
    "bands": flags(omega=NUMBERS, delta=NUMBERS, q_min=NUMBERS, q_max=NUMBERS, seed=INTEGERS,
                   n_points=sizes((2, 5, 40), (0, 1, -3, 100_001, 10**12, "nan"))),
    "coeffs": flags(omega=NUMBERS, delta=NUMBERS,
                    delta_list=st.integers(1, 3).flatmap(number_list)),
    "ratio-sweep": st.tuples(
        sizes((1, 2), (0, -1, 100_001, 10**15, "inf")).map(lambda v: [f"--points={v}"]),
        sizes((100,), (0, 99, 10**6 + 1, 10**15, -5)).map(lambda v: [f"--samples={v}"]),
        flags(axis=st.sampled_from(["omega", "delta"]), start=NUMBERS, stop=NUMBERS,
              omega=NUMBERS, delta=NUMBERS, seed=INTEGERS, no_interference=True),
    ).map(lambda parts: [a for part in parts for a in part]),
    "fit": flags(rho0=NUMBERS, t_pa=NUMBERS),
    "simulate": flags(mode=st.sampled_from(["superposition", "mixture"]), omega=NUMBERS,
                      delta=NUMBERS, noise=NUMBERS, seed=INTEGERS, no_interference=True),
    "mixture-sim": flags(counts=number_list(3), k00=NUMBERS, t_pa=NUMBERS,
                         dt=sizes((0.05,), (0, -1, 1e-300, 1e300, "nan", "inf")),
                         cross_weight=NUMBERS,
                         n_shells=sizes((1, 3, 50), (0, -1, 100_001, 10**18, "nan"))),
}

NON_FINITE = re.compile(rb"\b(nan|inf|infinity)\b", re.I)


@pytest.fixture(scope="module")
def spectrum_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "spec.csv"
    write_spectrum_csv(path, synthesize_spectrum(
        LorentzianLine(eta_res=1.0, nu0=0.0, gamma=20.0),
        PulseParams(t_pa=5e-3, rho0=1e14, n0=9000.0),
        np.linspace(-30, 30, 9), 0.0, 0))
    return str(path)


@pytest.fixture(scope="module", autouse=True)
def no_config_from_environment():
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("RAMANPA_CONFIG", raising=False)
        yield


@pytest.mark.parametrize("verb", sorted(VERBS))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_flags_exit_cleanly(verb, spectrum_csv, data):
    argv = [verb] + ([spectrum_csv] if verb == "fit" else []) + data.draw(VERBS[verb])
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "o")
        try:
            code = cli.main(argv + ["--out-dir", out, "--format", "csv,json,svg"])
        except SystemExit as exc:  # argparse rejects a flag value: exit 1
            code = exc.code
        assert code in (0, 1, 2, 3), argv
        for base, _, names in os.walk(out):
            for name in names:
                with open(os.path.join(base, name), "rb") as fh:
                    assert not NON_FINITE.search(fh.read()), (argv, name)


# ---------------------------------------------------------------- input files

TOKENS = [b"\xef\xbb\xbf", b"\r\n", b"\r", b"\n", b"\x00", b"\xff", b"\x80", b"\xc3\xa9",
          b",", b"-", b".", b"e", b"=", b"#", b" ", b"0", b"9", b"nan", b"inf", b"1e300"]
SPECTRUM = (b"detuning_khz,atoms_total,stderr\n"
            + b"".join(b"%g,%g,%g\n" % (d, 9000.0 - 4000.0 / (1.0 + (d / 10.0) ** 2), 90.0)
                       for d in np.linspace(-30.0, 30.0, 7)))
CONFIG = b"raman.omega_r = 8\nraman.delta = 0.5  # E_r\nuncertainty.seed = 3\n"


def edited(base):
    """base with up to four edits: a number-like field replaced by a drawn
    flag number, or a token or arbitrary bytes inserted at a drawn offset."""
    fields = [m.span() for m in re.finditer(rb"-?\d[\d.e+-]*", base)]
    replace = st.tuples(st.sampled_from(fields), NUMBERS.map(str.encode))
    insert = st.tuples(st.integers(0, len(base)).map(lambda i: (i, i)),
                       st.one_of(st.sampled_from(TOKENS), st.binary(min_size=1, max_size=8)))

    def apply(edits):
        out = bytearray(base)
        for (lo, hi), token in sorted(edits, reverse=True):
            out[lo:hi] = token
        return bytes(out)

    return st.lists(st.one_of(replace, insert), max_size=4).map(apply)


def run_with_file(raw, argv_of):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(raw)
        out = os.path.join(tmp, "o")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv_of(path) + ["--out-dir", out, "--format", "csv,json,svg"])
        assert code in (0, 2, 3), raw
        for base, _, names in os.walk(out):
            for name in names:
                with open(os.path.join(base, name), "rb") as fh:
                    assert not NON_FINITE.search(fh.read()), (raw, name)


@settings(max_examples=40, deadline=None, derandomize=True)
@example(raw=b"\xef\xbb\xbf" + SPECTRUM)
@example(raw=SPECTRUM.replace(b"\n", b"\r\n"))
@example(raw=SPECTRUM.replace(b"8600", b"86\x0000", 1))
@example(raw=SPECTRUM + b"\xff")
@given(raw=edited(SPECTRUM))
def test_fuzzed_spectrum_file_exits_cleanly(raw):
    run_with_file(raw, lambda path: ["fit", path])


@settings(max_examples=60, deadline=None, derandomize=True)
@example(raw=b"\xef\xbb\xbf" + CONFIG)
@example(raw=CONFIG.replace(b"\n", b"\r\n"))
@example(raw=CONFIG.replace(b"8", b"\x00"))
@example(raw=CONFIG.replace(b"0.5", b"\xff"))
@given(raw=edited(CONFIG))
def test_fuzzed_config_file_exits_cleanly(raw):
    run_with_file(raw, lambda path: ["bands", "--config", path])
