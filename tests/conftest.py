"""Suite-wide pytest configuration."""


def pytest_configure(config):
    # Hypothesis caches the literals of local source files under
    # ./.hypothesis even without an example database; keep that cache
    # inside pytest's own cache directory instead.  Only
    # test_properties.py needs hypothesis, so the other modules still run
    # without it.
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    if getattr(config, "cache", None) is not None:
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))
