"""The v3 import-graph slicer: sibling helpers join the checked unit with
per-module constant/suppression scoping, a two-module app verifies
exactly like its single-file merge, and a helper the slicer cannot join
stays an opaque call.  ``halo.exchange`` draws entropy, so a joined
helper shows as RPR020 and an opaque one checks clean."""

import textwrap

from repro.check import check_path

HALO = '''
TAG = 7


def exchange(ctx, value):
    ctx.potential_checkpoint()
    ctx.send(value, dest=0, tag=TAG)
    left = ctx.recv(src=0, tag=TAG)
    import random
    jitter = random.random()
    return value + left + jitter
'''

APP = '''
from halo import exchange


def main(ctx):
    acc = 0.0
    for _ in range(4):
        ctx.potential_checkpoint()
        acc = exchange(ctx, acc)
        acc = ctx.allreduce(acc, op="sum")
    return acc
'''

MERGED = '''
TAG = 7


def exchange(ctx, value):
    ctx.potential_checkpoint()
    ctx.send(value, dest=0, tag=TAG)
    left = ctx.recv(src=0, tag=TAG)
    import random
    jitter = random.random()
    return value + left + jitter


def main(ctx):
    acc = 0.0
    for _ in range(4):
        ctx.potential_checkpoint()
        acc = exchange(ctx, acc)
        acc = ctx.allreduce(acc, op="sum")
    return acc
'''


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


def codes(result):
    return sorted(d.code for d in result.diagnostics)


class TestTwoModuleParity:
    def test_app_reports_same_codes_as_single_file_merge(self, tmp_path):
        write(tmp_path, "halo.py", HALO)
        app = write(tmp_path, "app.py", APP)
        merged = write(tmp_path, "merged.py", MERGED)
        assert codes(check_path(str(app))) == codes(check_path(str(merged)))
        # the seeded entropy draw is the only finding in both shapes
        assert codes(check_path(str(app))) == ["RPR020"]

    def test_sibling_findings_keep_sibling_spans(self, tmp_path):
        halo = write(tmp_path, "halo.py", HALO)
        app = write(tmp_path, "app.py", APP)
        result = check_path(str(app))
        diag = next(d for d in result.diagnostics if d.code == "RPR020")
        assert diag.span.file == str(halo)
        assert diag.function == "exchange"

    def test_functions_report_both_modules(self, tmp_path):
        write(tmp_path, "halo.py", HALO)
        app = write(tmp_path, "app.py", APP)
        result = check_path(str(app))
        assert set(result.functions) == {"main", "exchange"}


class TestModuleAliasCalls:
    def test_import_module_joins_attribute_call_sites(self, tmp_path):
        write(tmp_path, "halo.py", HALO)
        app = write(tmp_path, "app.py", '''
            import halo


            def main(ctx):
                acc = 0.0
                for _ in range(4):
                    ctx.potential_checkpoint()
                    acc = halo.exchange(ctx, acc)
                    acc = ctx.allreduce(acc, op="sum")
                return acc
        ''')
        result = check_path(str(app))
        assert set(result.functions) == {"main", "exchange"}
        assert codes(result) == ["RPR020"]

    def test_import_as_alias_joins_too(self, tmp_path):
        write(tmp_path, "halo.py", HALO)
        app = write(tmp_path, "app.py", '''
            import halo as h


            def main(ctx):
                ctx.potential_checkpoint()
                acc = h.exchange(ctx, 0.0)
                return ctx.allreduce(acc, op="sum")
        ''')
        result = check_path(str(app))
        assert "exchange" in result.functions
        assert codes(result) == ["RPR020"]

    def test_missing_attribute_on_module_alias_stays_opaque(self, tmp_path):
        write(tmp_path, "halo.py", HALO)
        app = write(tmp_path, "app.py", '''
            import halo


            def main(ctx):
                ctx.potential_checkpoint()
                acc = halo.no_such_helper(ctx, 0.0)
                return ctx.allreduce(acc, op="sum")
        ''')
        result = check_path(str(app))
        assert result.functions == ("main",)
        assert codes(result) == []


def opaque(result) -> bool:
    """Halo's ``exchange`` did not join: no RPR020 from its draw."""
    return codes(result) == [] and result.functions in (
        ("main",), ("exchange", "main"),
    )


class TestUnresolvable:
    def test_missing_name_stays_opaque(self, tmp_path):
        write(tmp_path, "halo.py", HALO)
        app = write(tmp_path, "app.py", '''
            from halo import ghost


            def main(ctx):
                ctx.potential_checkpoint()
                return ctx.allreduce(ghost(1.0), op="sum")
        ''')
        result = check_path(str(app))
        assert result.functions == ("main",)
        assert codes(result) == []

    def test_aliased_helper_import_stays_opaque(self, tmp_path):
        write(tmp_path, "halo.py", HALO)
        app = write(tmp_path, "app.py", '''
            from halo import exchange as xchg


            def main(ctx):
                ctx.potential_checkpoint()
                return ctx.allreduce(xchg(ctx, 1.0), op="sum")
        ''')
        assert opaque(check_path(str(app)))

    def test_star_import_stays_opaque(self, tmp_path):
        write(tmp_path, "halo.py", HALO)
        app = write(tmp_path, "app.py", '''
            from halo import *


            def main(ctx):
                ctx.potential_checkpoint()
                return ctx.allreduce(exchange(ctx, 1.0), op="sum")
        ''')
        assert opaque(check_path(str(app)))

    def test_local_collision_stays_opaque(self, tmp_path):
        write(tmp_path, "halo.py", HALO)
        app = write(tmp_path, "app.py", '''
            from halo import exchange


            def exchange(ctx, value):
                return value


            def main(ctx):
                ctx.potential_checkpoint()
                return ctx.allreduce(exchange(ctx, 1.0), op="sum")
        ''')
        assert opaque(check_path(str(app)))

    def test_broken_sibling_stays_opaque(self, tmp_path):
        write(tmp_path, "halo.py", "def exchange(ctx, v:\n    pass\n")
        app = write(tmp_path, "app.py", '''
            from halo import exchange


            def main(ctx):
                ctx.potential_checkpoint()
                return ctx.allreduce(exchange(ctx, 1.0), op="sum")
        ''')
        assert opaque(check_path(str(app)))

    def test_non_function_imports_stay_silent(self, tmp_path):
        write(tmp_path, "halo.py", HALO)
        app = write(tmp_path, "app.py", '''
            from halo import TAG


            def main(ctx):
                ctx.potential_checkpoint()
                return ctx.allreduce(float(TAG), op="sum")
        ''')
        assert codes(check_path(str(app))) == []


class TestPerModuleScoping:
    def test_constants_resolve_in_their_own_module(self, tmp_path):
        # The sibling sends on *its* TAG (3); the app receives on *its*
        # TAG (9).  A flat constant table would collapse the two and see
        # matched traffic; per-module scoping keeps them distinct.
        write(tmp_path, "wire.py", '''
            TAG = 3


            def push(ctx, value):
                ctx.potential_checkpoint()
                ctx.send(value, dest=0, tag=TAG)
        ''')
        app = write(tmp_path, "app.py", '''
            from wire import push

            TAG = 9


            def main(ctx):
                ctx.potential_checkpoint()
                push(ctx, 1.0)
                got = ctx.recv(src=0, tag=TAG)
                return ctx.allreduce(got, op="sum")
        ''')
        result = check_path(str(app))
        assert codes(result) == ["RPR013", "RPR013"]

    def test_matching_cross_module_tags_verify_clean(self, tmp_path):
        write(tmp_path, "wire.py", '''
            TAG = 9


            def push(ctx, value):
                ctx.potential_checkpoint()
                ctx.send(value, dest=0, tag=TAG)
        ''')
        app = write(tmp_path, "app.py", '''
            from wire import push

            TAG = 9


            def main(ctx):
                ctx.potential_checkpoint()
                push(ctx, 1.0)
                got = ctx.recv(src=0, tag=TAG)
                return ctx.allreduce(got, op="sum")
        ''')
        assert codes(check_path(str(app))) == []

    def test_sibling_suppressions_apply_to_sibling_findings(self, tmp_path):
        write(tmp_path, "halo.py", HALO.replace(
            "jitter = random.random()",
            "jitter = random.random()  # repro: ignore[RPR020]",
        ))
        app = write(tmp_path, "app.py", APP)
        result = check_path(str(app))
        assert codes(result) == []
        assert [d.code for d in result.suppressed] == ["RPR020"]

    def test_imported_constants_enter_the_target_scope(self, tmp_path):
        write(tmp_path, "wire.py", '''
            TAG = 5


            def push(ctx, value):
                ctx.potential_checkpoint()
                ctx.send(value, dest=0, tag=TAG)
        ''')
        app = write(tmp_path, "app.py", '''
            from wire import TAG, push


            def main(ctx):
                ctx.potential_checkpoint()
                push(ctx, 1.0)
                got = ctx.recv(src=0, tag=TAG)
                return ctx.allreduce(got, op="sum")
        ''')
        assert codes(check_path(str(app))) == []
