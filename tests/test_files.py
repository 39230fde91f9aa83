"""Unit tests for the crash-safe file layer (:mod:`repro.files`)."""

import sys
import threading

import pytest

from repro.files import JsonlLog, atomic_write, read_jsonl


class TestAtomicWrite:
    @pytest.mark.parametrize(
        "data",
        ["héllo\n", "héllo\n".encode(), [b"h\xc3\xa9", b"llo\n"]],
        ids=["text", "bytes", "chunks"],
    )
    def test_text_bytes_and_chunks_write_the_same_bytes(self, tmp_path, data):
        path = tmp_path / "sub" / "file.txt"
        atomic_write(path, data)
        assert path.read_bytes() == "héllo\n".encode()

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "file.txt"
        path.write_text("old")
        atomic_write(path, "new")
        assert path.read_text() == "new"

    def test_failure_removes_temp_file(self, tmp_path):
        def chunks():
            yield b"partial"
            raise RuntimeError("writer died")

        with pytest.raises(RuntimeError):
            atomic_write(tmp_path / "file.bin", chunks())
        assert list(tmp_path.iterdir()) == []


class TestJsonlLog:
    def test_lines_are_canonical(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with JsonlLog(path, durable=True) as log:
            log.append({"b": 1, "a": path})
        assert path.read_text() == '{"a":"%s","b":1}\n' % path

    def test_appends_after_close_are_dropped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = JsonlLog(path)
        log.append({"n": 1})
        log.close()
        log.append({"n": 2})
        assert read_jsonl(path) == [{"n": 1}]

    def test_concurrent_appends_never_interleave(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = JsonlLog(path)
        writers, records = 8, 200
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda w=w: [
                        log.append({"w": w, "n": n, "pad": "x" * 64})
                        for n in range(records)
                    ]
                )
                for w in range(writers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            log.close()
        got = read_jsonl(path)
        assert len(path.read_bytes().splitlines()) == writers * records
        assert sorted((r["w"], r["n"]) for r in got) == [
            (w, n) for w in range(writers) for n in range(records)
        ]

    def test_reopened_log_appends(self, tmp_path):
        path = tmp_path / "log.jsonl"
        for n in range(2):
            with JsonlLog(path) as log:
                log.append({"n": n})
        assert read_jsonl(path) == [{"n": 0}, {"n": 1}]


class TestReadJsonl:
    def test_missing_file_reads_empty(self, tmp_path):
        assert read_jsonl(tmp_path / "absent.jsonl") == []

    def test_skips_garbage_and_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(
            b'{"n":1}\n\n  \nnot json\n[1,2]\n\xff\xfe\n{"n":2}\n{"n":'
        )
        assert read_jsonl(path) == [{"n": 1}, {"n": 2}]
