"""CSV tables: exact bytes of every public writer and the shared column writer."""
import ast
import pathlib

import numpy as np
import pytest

import ramanpa
from ramanpa.dressed_states import BandCurve, write_band_csv
from ramanpa.interference import write_ratio_sweep_csv
from ramanpa.pa_kinetics import MixtureSeries, write_mixture_csv
from ramanpa.spectra import Spectrum, write_spectrum_csv
from ramanpa.uncertainty import RatioBand, write_ratio_band_csv

# as .12g these print 0.1, -0, 1e-300, 0.666666666667 and 123456789012
V = np.array([0.1, -0.0, 1e-300, 2.0 / 3.0, 123456789012.5])


def written(tmp_path, writer, *args):
    path = tmp_path / "table.csv"
    writer(path, *args)
    return path.read_bytes()


def test_band_csv_bytes(tmp_path):
    curve = BandCurve(q_grid=V[:2], energies=np.resize(V, (2, 3)),
                      spin_weights=np.resize(V[::-1], (2, 3, 3)))
    assert written(tmp_path, write_band_csv, curve) == (
        b"q_kr,E1_Er,E2_Er,E3_Er,w1_m-1,w1_m0,w1_m+1,w2_m-1,w2_m0,w2_m+1,"
        b"w3_m-1,w3_m0,w3_m+1\n"
        b"0.1,0.1,-0,1e-300,123456789012,0.666666666667,1e-300,-0,0.1,"
        b"123456789012,0.666666666667,1e-300,-0\n"
        b"-0,0.666666666667,123456789012,0.1,0.1,123456789012,0.666666666667,"
        b"1e-300,-0,0.1,123456789012,0.666666666667,1e-300\n")


def test_ratio_sweep_csv_bytes(tmp_path):
    assert written(tmp_path, write_ratio_sweep_csv, V[:2], V[2:4], V[3:5], V[[4, 0]]) == (
        b"omega_r_Er,delta_Er,ratio,ratio_no_interference\n"
        b"0.1,1e-300,0.666666666667,123456789012\n"
        b"-0,0.666666666667,123456789012,0.1\n")


def test_mixture_csv_bytes(tmp_path):
    series = MixtureSeries(times=V[:2], counts=np.resize(V[1:], (2, 3)),
                           events_00=V[2:4], events_pm=np.zeros(2))
    assert written(tmp_path, write_mixture_csv, series) == (
        b"t_s,N_m-1,N_m0,N_m+1,molecules_cumulative\n"
        b"0.1,-0,1e-300,0.666666666667,1e-300\n"
        b"-0,123456789012,-0,1e-300,0.666666666667\n")


def test_spectrum_csv_bytes(tmp_path):
    full = Spectrum(detunings_khz=V[[0, 3]], atoms_total=V[1:3],
                    atoms_components=np.resize(V[3:], (2, 3)), stderr=V[[4, 0]])
    assert written(tmp_path, write_spectrum_csv, full) == (
        b"detuning_khz,atoms_total,atoms_m_minus1,atoms_m0,atoms_m_plus1,stderr\n"
        b"0.1,-0,0.666666666667,123456789012,0.666666666667,123456789012\n"
        b"0.666666666667,1e-300,123456789012,0.666666666667,123456789012,0.1\n")
    bare = Spectrum(detunings_khz=V[[2, 0]], atoms_total=V[[1, 4]])
    assert written(tmp_path, write_spectrum_csv, bare) == (
        b"detuning_khz,atoms_total\n"
        b"1e-300,-0\n"
        b"0.1,123456789012\n")


def test_ratio_band_csv_bytes(tmp_path):
    bands = [RatioBand(sweep_axis=V[:2], mean=V[1:3], lower=V[2:4], upper=V[3:5],
                       variant="with-interference", std=np.zeros(2), nominal=V[1:3]),
             RatioBand(sweep_axis=V[4:], mean=V[:1], lower=V[1:2], upper=V[2:3],
                       variant="without-interference", std=np.zeros(1), nominal=V[:1])]
    assert written(tmp_path, write_ratio_band_csv, bands) == (
        b"axis_value_Er,mean,lower,upper,variant\n"
        b"0.1,-0,1e-300,0.666666666667,with-interference\n"
        b"-0,1e-300,0.666666666667,123456789012,with-interference\n"
        b"123456789012,0.1,-0,1e-300,without-interference\n")


@pytest.mark.parametrize("columns", [([1.0, 2.0], [3.0]), ([1.0], [[2.0]]), ([1.0],)])
def test_mismatched_columns_raise_before_any_file(tmp_path, columns):
    from ramanpa.tables import write_csv

    path = tmp_path / "table.csv"
    with pytest.raises(ValueError):
        write_csv(path, ("a", "b"), columns)
    assert not path.exists()


def test_unequal_sweep_columns_create_no_file(tmp_path):
    path = tmp_path / "sweep.csv"
    with pytest.raises(ValueError):
        write_ratio_sweep_csv(path, [1.0, 2.0], [0.0, 0.0], [0.5], [0.6, 0.7])
    assert not path.exists()


def test_number_format_lives_in_one_function():
    src = pathlib.Path(ramanpa.__file__).parent
    holders = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if ".12g" not in text:
            continue
        holders += [(path.name, node.name) for node in ast.walk(ast.parse(text))
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and ".12g" in ast.get_source_segment(text, node)]
        assert path.name == "tables.py", f"{path.name} formats its own numbers"
    assert holders == [("tables.py", "write_csv")]
