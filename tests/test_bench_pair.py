import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_recorder():
    spec = importlib.util.spec_from_file_location(
        "bench_pair", ROOT / "scripts" / "bench_pair.py")
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    return recorder


def test_check_recomputes_every_record_from_its_samples(tmp_path, capsys):
    # the committed records agree with their samples; a record whose wins,
    # claim, median or sample count was edited by hand does not, by name
    recorder = load_recorder()
    books = sorted(ROOT.glob("BENCH_*.json"))
    assert books and recorder.main(["--check", *map(str, books)]) == 0
    book = json.loads(books[0].read_text())
    edits = [
        lambda r: r["metrics"]["op_p50_ms"].update(wins=0),
        lambda r: r["metrics"]["op_p50_ms"].update(
            claim_met=not r["metrics"]["op_p50_ms"]["claim_met"]),
        lambda r: r["metrics"]["ops_per_s"].update(
            change_median=r["metrics"]["ops_per_s"]["change_median"] * 2),
        lambda r: r["samples"]["change"]["setup_s"].pop(),
    ]
    for edit, named in zip(edits, ("op_p50_ms: wins", "op_p50_ms: claim_met",
                                   "ops_per_s: change_median",
                                   "setup_s: not one sample per pair")):
        record = json.loads(json.dumps(book["runs"][0]))
        edit(record)
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"runs": [record]}))
        capsys.readouterr()
        assert recorder.main(["--check", str(path)]) == 1
        assert named in capsys.readouterr().out
