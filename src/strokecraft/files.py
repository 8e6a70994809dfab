"""The one module that opens files. A file that cannot be read or written, and
text that is not UTF-8, raise DataIOError (exit 3) naming the path."""

from .errors import DataIOError


def read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc


def read_text(path) -> str:
    """The file decoded as strict UTF-8."""
    try:
        return read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataIOError(f"{path} is not UTF-8 text: {exc}") from exc


def write_bytes(path, data) -> None:
    """Replace the file with data; its directory must already exist."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise DataIOError(f"cannot write {path}: {exc}") from exc
