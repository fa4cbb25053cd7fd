from hypothesis import settings

# property tests are reproducible and untimed: a fixed example sequence, no
# example database, and no deadline (the mpmath oracles are slow); each test
# sets its own max_examples
settings.register_profile("oracle", derandomize=True, database=None, deadline=None)
settings.load_profile("oracle")
