import numpy as np

from fibwalk.output import fmt, write_table


def test_fmt_styles():
    assert fmt(2) == "2"
    assert fmt(np.int64(5)) == "5"
    assert fmt(True) == "true"
    assert fmt(0.5) == "0.5"
    assert fmt(1.0 / 3.0) == "0.33333333333333331"
    assert fmt("ok") == "ok"
    assert fmt(float("nan")) == "nan"


def test_write_table_csv(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b"], [[1, 0.25], [2, "x"]], "csv")
    assert path.read_text() == "a,b\n1,0.25\n2,x\n"


def test_write_table_json(tmp_path):
    path = tmp_path / "t.json"
    write_table(path, ["a"], [[np.float64(0.5)], [np.bool_(True)]], "json")
    text = path.read_text()
    assert '"columns"' in text and "0.5" in text and "true" in text

