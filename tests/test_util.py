"""The file writers of ``farecast.util``: a file is replaced whole or not at all."""

import os
import stat

import pytest

from farecast.util import write_csv, write_json


def mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


def test_a_failing_row_leaves_the_old_file_whole_and_no_temporary_file(tmp_path):
    path = tmp_path / "report.csv"
    write_csv(path, ["a", "b"], [(1, 2)])
    old = path.read_bytes()

    def rows():
        yield (3, 4)
        raise RuntimeError("killed mid-write")

    with pytest.raises(RuntimeError):
        write_csv(path, ["a", "b"], rows())
    assert path.read_bytes() == old == b"a,b\r\n1,2\r\n"
    assert os.listdir(tmp_path) == ["report.csv"]


def test_written_files_keep_the_mode_a_plain_open_gives(tmp_path):
    plain = tmp_path / "plain.json"
    plain.write_text("{}\n", encoding="utf-8")
    path = tmp_path / "new.json"
    write_json({"a": 1}, path)
    assert mode(path) == mode(plain)  # the umask's, not a temporary file's 0600

    os.chmod(path, 0o640)
    write_json({"a": 2}, path)
    assert mode(path) == 0o640 and path.read_text(encoding="utf-8") == '{"a": 2}\n'


def test_a_symlink_is_written_through(tmp_path):
    target = tmp_path / "target.json"
    write_json({"a": 1}, target)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    write_json({"a": 2}, link)
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == '{"a": 2}\n'
    assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json"]


def test_a_pipe_is_written_in_place(tmp_path):
    # A path that is not a regular file, such as a pipe or /dev/stdout, is
    # never renamed over: the write goes to it.
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_json({"a": 1}, pipe)
        assert os.read(reader, 100) == b'{"a": 1}\n'
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]
