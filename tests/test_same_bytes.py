"""The number-by-number comparison of ``tests/same_bytes.py --rel TOL`` on
hand-written pairs of artifacts."""

import math

import pytest

from same_bytes import NonNumericChange, _demo, _outputs, compare, differences

TOL = 1e-12
JSON = b'{\n  "config": {"seed": 5},\n  "rows": [{"t": 1, "total": 0.25}],\n  "total": [0.5]\n}\n'
CSV = b'# config: {"seed": 5}\r\nt,total,ok\r\n1,0.5,True\r\n2,0.25,True\r\n'
# the next float above 0.25, and a change far past TOL
NEAR, FAR = b"0.25000000000000006", b"0.2500001"


@pytest.mark.parametrize("name, old", [("out.json", JSON), ("out.csv", CSV)])
class TestRelativeCompare:
    def test_equal_bytes_move_nothing(self, name, old):
        assert compare(name, old, old) == (0.0, None)

    def test_a_change_within_tol(self, name, old):
        rel, where = compare(name, old, old.replace(b"0.25", NEAR))
        assert 0 < rel <= TOL
        assert where == ("$.rows[0].total" if name == "out.json" else "line 4")

    def test_a_change_past_tol(self, name, old):
        rel, _ = compare(name, old, old.replace(b"0.25", FAR))
        assert rel == pytest.approx(1e-7 / 0.2500001, rel=1e-6)
        assert rel > TOL

    def test_the_largest_change_is_reported(self, name, old):
        new = old.replace(b"0.25", NEAR).replace(b"0.5", b"0.5000001")
        assert compare(name, old, new)[0] == pytest.approx(1e-7 / 0.5000001, rel=1e-6)

    def test_a_renamed_key_is_not_a_number(self, name, old):
        with pytest.raises(NonNumericChange, match="total"):
            compare(name, old, old.replace(b'total"' if name == "out.json" else b"total,",
                                           b'risk"' if name == "out.json" else b"risk,"))

    def test_a_nan_is_the_largest_change(self, name, old):
        new = old.replace(b"0.25", b"NaN" if name == "out.json" else b"nan")
        assert math.isnan(compare(name, old, new.replace(b"0.5", b"0.6"))[0])


def test_a_changed_config_line_or_line_end_is_not_a_number():
    with pytest.raises(NonNumericChange, match="config"):
        compare("out.csv", CSV, CSV.replace(b'"seed": 5', b'"seed": 6'))
    with pytest.raises(NonNumericChange, match="line 4"):
        compare("out.csv", CSV, CSV.replace(b"0.25,True\r\n", b"0.25,True\n"))


def test_stdout_is_compared_as_a_whole():
    assert compare("stdout", b"t=3506\n", b"t=3506\n") == (0.0, None)
    with pytest.raises(NonNumericChange):
        compare("stdout", b"t=3506\n", b"t=3507\n")


def test_a_demos_stdout_that_differs_is_reported(tmp_path):
    """Each root runs its own copy of a demo, in a fresh empty directory,
    and a demo's stdout is compared as any command's is."""
    roots = []
    for text in ("t=3506", "t=3507"):
        root = tmp_path / text
        (root / "demos").mkdir(parents=True)
        (root / "demos" / "show.py").write_text(
            f"import os\nassert not os.listdir()\nprint({text!r})\n")
        roots.append(root)
    commands = [("demo show.py", _demo("show.py"))]
    old, new = (_outputs(root, commands, tmp_path / f"run{i}") for i, root in enumerate(roots))
    assert old == [{"stdout": b"t=3506\n"}]
    assert list(differences(commands, old, old)) == []
    assert list(differences(commands, old, new, rel=TOL)) == \
        [("differs", "differs   demo show.py: stdout  the bytes differ")]
