"""The NEWTON_COCENTER_CACHE file is validated on load and written
atomically; every problem with it is reported on stderr and never
changes the printed answer or the exit code."""

import json

from newton_cocenter.cli import main

ARGV = ["--group", "A1", "--json", "cocenter-reduce", "T[t[3]*s1]"]
CACHE_NAME = "nf-v1-A1-sc.json"


def run(capsys):
    code = main(list(ARGV))
    out = capsys.readouterr()
    return code, out.out, out.err


def uncached(capsys, monkeypatch):
    monkeypatch.delenv("NEWTON_COCENTER_CACHE", raising=False)
    code, out, _ = run(capsys)
    assert code == 0
    return out


def test_corrupt_file_is_reported_and_rewritten(tmp_path, capsys, monkeypatch):
    expected = uncached(capsys, monkeypatch)
    (tmp_path / CACHE_NAME).write_text("{not json", encoding="utf-8")
    monkeypatch.setenv("NEWTON_COCENTER_CACHE", str(tmp_path))
    code, out, err = run(capsys)
    assert code == 0
    assert out == expected
    assert "NF cache" in err and "unreadable" in err
    data = json.loads((tmp_path / CACHE_NAME).read_text(encoding="utf-8"))
    assert data["schema"] == "nf-v1" and data["normal_forms"]
    assert [p.name for p in tmp_path.iterdir()] == [CACHE_NAME]


def test_wrong_schema_is_reported(tmp_path, capsys, monkeypatch):
    expected = uncached(capsys, monkeypatch)
    (tmp_path / CACHE_NAME).write_text(
        json.dumps({"schema": "nf-v0", "normal_forms": {}}), encoding="utf-8")
    monkeypatch.setenv("NEWTON_COCENTER_CACHE", str(tmp_path))
    code, out, err = run(capsys)
    assert code == 0
    assert out == expected
    assert "not a nf-v1 cache" in err


def test_tampered_entry_is_dropped(tmp_path, capsys, monkeypatch):
    expected = uncached(capsys, monkeypatch)
    monkeypatch.setenv("NEWTON_COCENTER_CACHE", str(tmp_path))
    code, out, err = run(capsys)
    assert code == 0 and out == expected and "NF cache" not in err
    path = tmp_path / CACHE_NAME
    data = json.loads(path.read_text(encoding="utf-8"))
    terms = data["normal_forms"]["t[3]*s1"]
    key = sorted(terms)[0]
    terms[key] = terms[key] + "+1"
    data["normal_forms"]["t[3]*s1"] = terms
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys)
    assert code == 0
    assert out == expected
    assert "dropped 1 invalid entries" in err


def test_entries_are_checked_only_when_read(tmp_path, capsys, monkeypatch):
    expected = uncached(capsys, monkeypatch)
    monkeypatch.setenv("NEWTON_COCENTER_CACHE", str(tmp_path))
    assert run(capsys)[0] == 0
    path = tmp_path / CACHE_NAME
    data = json.loads(path.read_text(encoding="utf-8"))
    data["normal_forms"]["t[3]*s1"] = {"t[0]": "q"}
    tampered = json.dumps(data)
    path.write_text(tampered, encoding="utf-8")
    # a query that uses no normal form neither checks nor rewrites the file
    code = main(["--group", "A1", "newton", "t[3]*s1"])
    assert code == 0 and "NF cache" not in capsys.readouterr().err
    assert path.read_text(encoding="utf-8") == tampered
    code, out, err = run(capsys)
    assert code == 0 and out == expected
    assert "dropped 1 invalid entries" in err


def test_unparsable_entry_is_dropped(tmp_path, capsys, monkeypatch):
    expected = uncached(capsys, monkeypatch)
    (tmp_path / CACHE_NAME).write_text(json.dumps({
        "schema": "nf-v1", "group": "A1:sc",
        "normal_forms": {"t[3]*s1": {"t[0]*s9": "1"}, "bogus": {}}}),
        encoding="utf-8")
    monkeypatch.setenv("NEWTON_COCENTER_CACHE", str(tmp_path))
    code, out, err = run(capsys)
    assert code == 0
    assert out == expected
    assert "dropped 2 invalid entries" in err


def test_unwritable_directory_is_reported(tmp_path, capsys, monkeypatch):
    expected = uncached(capsys, monkeypatch)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    # a cache directory below a regular file can be neither read nor
    # created, whatever the permissions of the user running the tests
    monkeypatch.setenv("NEWTON_COCENTER_CACHE", str(blocker / "cache"))
    code, out, err = run(capsys)
    assert code == 0
    assert out == expected
    assert "not written" in err
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
