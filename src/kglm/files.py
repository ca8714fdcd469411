"""Crash-safe writes for the artifacts a later stage reads, text reads
whose decoding errors name the line, and the array container that
checkpoints are stored in."""

import contextlib
import json
import math
import os

import numpy as np


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """Open ``<path>.tmp`` for writing; on a clean exit it replaces
    ``path`` in one ``os.replace``, and on an exception it is deleted,
    so ``path`` holds either its old bytes or all the new ones. A killed
    process can leave ``<path>.tmp`` behind; the next write replaces it.
    ``mode`` is ``"w"`` (UTF-8 text) or ``"wb"``."""
    tmp = f"{path}.tmp"
    encoding = None if "b" in mode else "utf-8"
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@contextlib.contextmanager
def open_text(path):
    """Open ``path`` for reading as UTF-8 text. Bytes that do not decode
    raise ValueError naming the path and the line they are on (Python's
    own error gives only an offset within the chunk it was decoding)."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"{path}:{line}: not UTF-8 text (byte 0x{data[exc.start]:02x})") from None
        raise


def write_arrays(path, magic, header, arrays):
    """Write a container atomically: the ``magic`` line, the byte length
    of the JSON header, the header (``header`` plus an ``arrays`` list of
    each array's name, dtype and shape, keys sorted), then the raw bytes
    of ``arrays`` (name -> ndarray) in order. Identical inputs produce
    byte-identical files."""
    manifest = [{"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)} for name, arr in arrays.items()]
    blob = json.dumps({**header, "arrays": manifest}, ensure_ascii=False, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(f"{magic}\n{len(blob)}\n".encode("ascii"))
        fh.write(blob)
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr).tobytes())


def _manifest_entry(entry):
    name, dtype, shape = entry["name"], np.dtype(entry["dtype"]), tuple(entry["shape"])
    if not isinstance(name, str) or dtype.kind not in "biuf" or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"{name!r} {dtype} {shape}")
    return name, dtype, shape


def read_arrays(path, magic, keys=()):
    """Read a :func:`write_arrays` container back; returns (header,
    arrays), the header without its ``arrays`` list and the arrays as
    name -> ndarray in file order. Raises ValueError naming ``path``
    unless the file starts with ``magic``, its header is a JSON object
    holding ``keys``, and the array bytes are exactly the ones the
    header lists."""
    with open(path, "rb") as fh:
        found = fh.readline().decode("ascii", errors="replace").rstrip("\n")
        if found != magic:
            raise ValueError(f"{path}: not a checkpoint file (magic {found!r})")
        try:
            n = int(fh.readline())
        except ValueError:
            raise ValueError(f"{path}: the header length line is not an integer") from None
        try:
            header = json.loads(fh.read(n).decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: the header is not valid JSON ({exc})") from None
        payload = fh.read()
    required = (*keys, "arrays")
    missing = [k for k in required if k not in header] if isinstance(header, dict) else list(required)
    if missing:
        raise ValueError(f"{path}: the header has no {', '.join(missing)}")
    try:
        manifest = [_manifest_entry(e) for e in header.pop("arrays")]
        names = [name for name, _, _ in manifest]
        if len(set(names)) != len(names):
            raise ValueError(f"repeated names in {names}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad array list in the header ({exc!r})") from None
    expected = sum(math.prod(shape) * dt.itemsize for _, dt, shape in manifest)
    if len(payload) != expected:
        raise ValueError(
            f"{path}: the header lists {expected} bytes of arrays, found {len(payload)} "
            "(truncated file or trailing bytes)"
        )
    arrays, offset = {}, 0
    for name, dt, shape in manifest:
        count = math.prod(shape)
        arrays[name] = np.frombuffer(payload, dtype=dt, count=count, offset=offset).reshape(shape).copy()
        offset += count * dt.itemsize
    return header, arrays
