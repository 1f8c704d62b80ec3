import hashlib
import importlib.util
from pathlib import Path

import pytest

from relaysim.cli import main

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def csv_corpus():
    spec = importlib.util.spec_from_file_location(
        "csv_corpus", TOOLS / "csv_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_has_264_distinct_runs(csv_corpus):
    labels = [label for label, _, _ in csv_corpus.cases()]
    assert len(labels) == len(set(labels)) == 264


def test_manifest_hashes_each_csv(csv_corpus, tmp_path, capsys):
    cdf = ["--mode", "cdf", "--trials", "20", "--seed", "3"]
    sweep = ["--trials", "5", "--lstep", "45", "--workers", "2"]
    text = "interferer_min = 0\ninterferer_max = 6\n"
    digests = csv_corpus.manifest([("cdf.csv", text, cdf),
                                   ("sweep.csv", "", sweep)])
    config = tmp_path / "run.conf"
    config.write_text(text)
    for label, argv in (("cdf.csv", [*cdf, "--config", str(config)]),
                        ("sweep.csv", sweep)):
        out = tmp_path / label
        assert main([*argv, "--out", str(out)]) == 0
        data = out.read_bytes()
        assert digests[label] == [hashlib.sha256(data).hexdigest(),
                                  len(data)]
    assert capsys.readouterr().out == \
        f"wrote {tmp_path / 'cdf.csv'}\nwrote {tmp_path / 'sweep.csv'}\n"


def test_manifest_names_a_failing_run(csv_corpus):
    with pytest.raises(RuntimeError, match="^bad.csv: relaysim --trials 0 "):
        csv_corpus.manifest([("bad.csv", "", ["--trials", "0"])])
