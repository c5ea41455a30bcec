"""The one CSV format seqal writes: header first, csv's default dialect
(CRLF, minimal quoting), floats at six decimals, blanks for missing."""

from __future__ import annotations

from seqal.tables import cell, write_table


def test_write_table_bytes(tmp_path):
    path = tmp_path / "t.csv"
    rows = [["a,b", cell(1.5), 7], ["c", cell(None), -1], ["d", cell(-2 / 3), 0]]
    write_table(path, ["name", "value", "count"], rows)
    assert path.read_bytes() == (
        b'name,value,count\r\n"a,b",1.500000,7\r\nc,,-1\r\nd,-0.666667,0\r\n'
    )


def test_cell():
    assert cell(None) == ""
    assert cell(0) == "0.000000"
    assert cell(1234.5678915) == "1234.567892"
    assert cell(-0.0000004) == "-0.000000"
