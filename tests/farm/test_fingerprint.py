"""Cache-key fingerprints: stability, sensitivity, graceful refusal."""

import importlib

import numpy as np

import repro
from repro.farm.fingerprint import code_salt, fingerprint, fn_identity

# ``repro.farm`` re-exports the function under the module's own name.
fingerprint_module = importlib.import_module("repro.farm.fingerprint")


def job_a(payload):
    return payload


def job_b(payload):
    return payload


class TestFingerprint:
    def test_stable_for_equal_payloads(self):
        assert fingerprint(job_a, (1, "x", 2.5)) == fingerprint(job_a, (1, "x", 2.5))

    def test_sensitive_to_payload(self):
        assert fingerprint(job_a, (1,)) != fingerprint(job_a, (2,))

    def test_sensitive_to_function(self):
        assert fingerprint(job_a, (1,)) != fingerprint(job_b, (1,))

    def test_sensitive_to_salt(self):
        assert fingerprint(job_a, (1,), salt="s1") != fingerprint(job_a, (1,), salt="s2")

    def test_unpicklable_payload_returns_none(self):
        assert fingerprint(job_a, (lambda: None,)) is None

    def test_default_salt_is_the_code_salt(self):
        assert fingerprint(job_a, (1,)) == fingerprint(job_a, (1,), salt=code_salt())

    def test_array_payloads_key_on_their_contents(self):
        grid = np.linspace(0.0, 1.0, 16)
        assert fingerprint(job_a, (grid,)) == fingerprint(job_a, (grid.copy(),))
        nudged = grid.copy()
        nudged[7] += 1e-12
        assert fingerprint(job_a, (grid,)) != fingerprint(job_a, (nudged,))

    def test_fn_identity_names_module_and_qualname(self):
        ident = fn_identity(job_a)
        assert ident.endswith(":job_a")
        assert "test_fingerprint" in ident


class TestCodeSalt:
    def test_cached_and_hexadecimal(self):
        salt = code_salt()
        assert salt == code_salt()  # per-process cache
        assert len(salt) == 64
        int(salt, 16)

    def test_any_source_edit_changes_the_salt(self, tmp_path, monkeypatch):
        """The salt covers every ``.py`` file under the package, nested
        ones included, and nothing else."""
        pkg = tmp_path / "pkg"
        (pkg / "sub").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "sub" / "core.py").write_text("X = 1\n")
        monkeypatch.setattr(repro, "__file__", str(pkg / "__init__.py"))

        def fresh_salt():
            monkeypatch.setattr(fingerprint_module, "_CODE_SALT", None)
            return code_salt()

        before = fresh_salt()
        (pkg / "notes.txt").write_text("not code")
        assert fresh_salt() == before
        (pkg / "sub" / "core.py").write_text("X = 2\n")
        assert fresh_salt() != before
