"""The repository's pytest settings, run on a small test file of their own."""

pytest_plugins = ["pytester"]


def test_failing_hypothesis_test_leaves_the_run_going(pytester, request):
    """Under `filterwarnings`, a failed `@given` test is reported as one
    failure and the tests after it still run: a warning raised while the
    hypothesis plugin reports the failure must not abort the session."""
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(
        f"    {line}\n" for line in request.config.getini("filterwarnings")))
    pytester.makepyfile("""
        from hypothesis import Phase, given, settings, strategies as st

        @given(st.integers())
        @settings(database=None, phases=[Phase.generate])
        def test_fails(n):
            assert n != n

        def test_passes():
            pass
    """)
    pytester.runpytest("-p", "no:cacheprovider").assert_outcomes(failed=1, passed=1)
