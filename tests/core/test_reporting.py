"""Text table/series formatting and artefact-write tests."""

import os

import pytest

from repro.core.reporting import format_table, ratio_note, write_artifact


class TestFormatTable:
    def test_contains_all_cells(self):
        text = format_table(["name", "value"],
                            [["alpha", 1.5], ["beta", 2.25]])
        assert "alpha" in text and "beta" in text
        assert "1.500" in text and "2.250" in text

    def test_title_underlined(self):
        text = format_table(["a"], [[1]], title="My Table")
        lines = text.splitlines()
        assert lines[0] == "My Table"
        assert lines[1] == "=" * len("My Table")

    def test_columns_aligned(self):
        text = format_table(["col", "x"], [["aaaaaaaa", 1], ["b", 22]])
        lines = text.splitlines()
        first = lines[-2]
        second = lines[-1]
        assert first.index("1") == second.index("2")

    def test_large_and_tiny_numbers(self):
        text = format_table(["v"], [[123456.0], [0.00001]])
        assert "1.23e+05" in text or "123456" in text or "1.23e5" in text
        assert "1e-05" in text

    def test_precision_option(self):
        text = format_table(["v"], [[1.23456]], precision=1)
        assert "1.2" in text and "1.23" not in text


class TestRatioNote:
    def test_with_paper_value(self):
        note = ratio_note(10.0, 20.0, label="fps")
        assert "0.50x" in note and "fps" in note

    def test_without_paper_value(self):
        note = ratio_note(10.0, 0.0, label="fps")
        assert "N/A" in note


class TestWriteArtifact:
    def test_creates_directories_and_writes(self, tmp_path):
        path = str(tmp_path / "nested" / "result.txt")
        assert write_artifact(path, "hello\n") == path
        assert open(path).read() == "hello\n"

    def test_overwrites_atomically_without_temp_residue(self, tmp_path):
        path = str(tmp_path / "result.txt")
        write_artifact(path, "first\n")
        write_artifact(path, "second\n")
        assert open(path).read() == "second\n"
        assert os.listdir(tmp_path) == ["result.txt"]

    def test_failed_write_preserves_existing_artifact(self, tmp_path,
                                                      monkeypatch):
        # If the write itself dies (e.g. disk full mid-write), the
        # previously committed artefact must survive intact and no temp
        # file may linger.
        path = str(tmp_path / "result.txt")
        write_artifact(path, "committed\n")

        import repro.core.reporting as reporting

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(reporting.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="disk full"):
            write_artifact(path, "half-written\n")
        monkeypatch.undo()
        assert open(path).read() == "committed\n"
        assert os.listdir(tmp_path) == ["result.txt"]
