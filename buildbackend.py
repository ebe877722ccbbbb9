"""Minimal in-tree PEP 517 / PEP 660 build backend.

This environment is offline and its setuptools predates native
``bdist_wheel`` support, so ``pip install -e .`` cannot use the standard
backends.  A wheel is just a zip file with a dist-info directory; this
backend builds one directly with the standard library — no setuptools,
no wheel package, no network.

Supports ``pip install .`` (regular wheel containing ``src/repro``) and
``pip install -e .`` (editable wheel containing a ``.pth`` pointing at
``src/``).
"""

from __future__ import annotations

import base64
import hashlib
import os
import zipfile

NAME = "repro"
VERSION = "1.0.0"
DIST = f"{NAME}-{VERSION}"
TAG = "py3-none-any"

_METADATA = f"""Metadata-Version: 2.1
Name: {NAME}
Version: {VERSION}
Summary: STASH (CLUSTER 2019) reproduction: distributed in-memory cache for hierarchical spatiotemporal aggregation queries
Requires-Python: >=3.10
Requires-Dist: numpy>=1.24
"""

_WHEEL = f"""Wheel-Version: 1.0
Generator: {NAME}-in-tree-backend
Root-Is-Purelib: true
Tag: {TAG}
"""


def _record_entry(archive_name: str, data: bytes) -> str:
    digest = base64.urlsafe_b64encode(hashlib.sha256(data).digest())
    return f"{archive_name},sha256={digest.rstrip(b'=').decode()},{len(data)}"


class _WheelWriter:
    def __init__(self, path: str):
        self._zip = zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED)
        self._records: list[str] = []

    def add(self, archive_name: str, data: bytes) -> None:
        self._zip.writestr(archive_name, data)
        self._records.append(_record_entry(archive_name, data))

    def close(self) -> None:
        record_name = f"{DIST}.dist-info/RECORD"
        self._records.append(f"{record_name},,")
        self._zip.writestr(record_name, "\n".join(self._records) + "\n")
        self._zip.close()


def _write_dist_info(writer: _WheelWriter) -> None:
    writer.add(f"{DIST}.dist-info/METADATA", _METADATA.encode())
    writer.add(f"{DIST}.dist-info/WHEEL", _WHEEL.encode())
    writer.add(f"{DIST}.dist-info/top_level.txt", f"{NAME}\n".encode())


# -- PEP 517 hooks ----------------------------------------------------------

def get_requires_for_build_wheel(config_settings=None):
    return []


def get_requires_for_build_editable(config_settings=None):
    return []


def prepare_metadata_for_build_wheel(metadata_directory, config_settings=None):
    info_dir = os.path.join(metadata_directory, f"{DIST}.dist-info")
    os.makedirs(info_dir, exist_ok=True)
    with open(os.path.join(info_dir, "METADATA"), "w") as handle:
        handle.write(_METADATA)
    with open(os.path.join(info_dir, "WHEEL"), "w") as handle:
        handle.write(_WHEEL)
    return f"{DIST}.dist-info"


prepare_metadata_for_build_editable = prepare_metadata_for_build_wheel


def build_wheel(wheel_directory, config_settings=None, metadata_directory=None):
    wheel_name = f"{DIST}-{TAG}.whl"
    src_root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
    writer = _WheelWriter(os.path.join(wheel_directory, wheel_name))
    for base, _dirs, files in sorted(os.walk(os.path.join(src_root, NAME))):
        for file_name in sorted(files):
            if file_name.endswith(".pyc"):
                continue
            full = os.path.join(base, file_name)
            rel = os.path.relpath(full, src_root)
            with open(full, "rb") as handle:
                writer.add(rel.replace(os.sep, "/"), handle.read())
    _write_dist_info(writer)
    writer.close()
    return wheel_name


def build_editable(wheel_directory, config_settings=None, metadata_directory=None):
    wheel_name = f"{DIST}-{TAG}.whl"
    src_root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
    writer = _WheelWriter(os.path.join(wheel_directory, wheel_name))
    writer.add(f"_{NAME}_editable.pth", (src_root + "\n").encode())
    _write_dist_info(writer)
    writer.close()
    return wheel_name
