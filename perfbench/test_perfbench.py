"""Negative controls and input determinism for the benchmark.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=600, cwd=cwd)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("kind, symptom", [("chi", "chi coefficients differ"),
                                           ("order", "|G|"),
                                           ("gram", "Gram matrix deviates")])
def test_corrupted_answer_fails_the_run(kind, symptom):
    code, lines = run_bench("--workload", "known-ladder", "--seed", "3",
                            "--seconds", "1", "--trace", "0", "--corrupt", kind)
    result = json.loads(lines[-1])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0
    record = json.loads(lines[-2])["record"]
    assert record["failed_ratio"] > 0
    assert all(any(symptom in e for e in f["errors"]) for f in record["failures"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    code, lines = run_bench("--workload", "known-ladder", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert lines == []


def test_command_line_names_every_workload():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_long_calls_are_visited_more_often():
    # median call times 4 s, 10 ms and 0.5 s: shares 2 : 1 : 1
    plain, visits, order = [[4.0], [0.01], [0.5]], [0, 0, 0], []
    for _ in range(40):
        k = run.next_item(plain, visits)
        visits[k] += 1
        order.append(k)
    assert order[:3] == [0, 1, 2]
    assert abs(visits[0] - 2 * visits[1]) <= 2
    assert abs(visits[1] - visits[2]) <= 1


def inputs(workload, seed, workdir):
    items = workloads.build(workload, seed, workdir)
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    return files, [item.argv[0:1] + item.argv[2:] if item.argv else item.sweep
                   for item in items]


@pytest.mark.parametrize("workload", ["random-spectra", "known-ladder"])
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    assert inputs(workload, 5, tmp_path / "a") == inputs(workload, 5, tmp_path / "b")


def test_other_seed_gives_other_random_graphs(tmp_path):
    files_a, _ = inputs("random-spectra", 5, tmp_path / "a")
    files_b, _ = inputs("random-spectra", 6, tmp_path / "b")
    assert set(files_a.values()).isdisjoint(files_b.values())


def test_known_answers_match_closed_forms():
    # Petersen: (9x^2 - 1)^5, roots -1/3 and 1/3 of multiplicity 5
    assert workloads.expand(workloads.PETERSEN_FACTORS)[:3] == [1, 0, -45]
    roots = workloads.roots_of(workloads.T8_FACTORS)
    assert [(str(r[1]), r[2]) for r in roots] == [("-1/3", 21), ("1/9", 7)]
    # the spectral oracle agrees with the closed form on T(8)
    spectral = workloads.roots_from_spectrum(workloads.seidel(workloads.triangular(8)))
    assert [(r[1], r[2]) for r in spectral] == [(r[1], r[2]) for r in roots]


def test_tracer_rebinds_and_restores(capsys):
    import gerbe.cli
    import gerbe.quadspace

    before = (gerbe.cli.char_poly, gerbe.quadspace.jacobi_eigh, gerbe.cli.rank)
    tracer = Tracer()
    with tracer.install():
        assert gerbe.cli.char_poly is not before[0]
        assert gerbe.cli.main(["demo"]) == 0
    assert (gerbe.cli.char_poly, gerbe.quadspace.jacobi_eigh, gerbe.cli.rank) == before
    selfs = {span: v for (_, span), v in tracer.self_times().items()}
    assert selfs["exactpoly.char_poly"][1] == 4  # one per demo fixture
    assert selfs["quadspace.jacobi_eigh"][1] == selfs["quadspace.rank"][1] > 0
    assert tracer.counts[(None, "autgroup.elements")] == 12 + 48 + 20 + 120
    assert all(s >= 0 for s, _ in selfs.values())


def test_analyze_check_covers_linking_at_unit_roots(tmp_path, capsys):
    import gerbe.cli

    item = next(i for i in workloads.build("known-ladder", 1, tmp_path)
                if i.id == "edgeless-6.analyze")
    assert gerbe.cli.main(item.argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert workloads.check_analyze(item.expect, out) == []
    root = next(r for r in out["roots"] if r["exact"] == "1")
    root["linking_ok"] = False
    root["partition"]["m"] = 2
    errors = workloads.check_analyze(item.expect, out)
    assert any("linking rules" in e for e in errors)
    assert any("2 lines at c = 1" in e for e in errors)
