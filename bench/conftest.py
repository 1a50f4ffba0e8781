"""The JSON of ``--benchmark-json`` keeps each benchmark's statistics, not the time
of every round, which pytest-benchmark writes too: megabytes at 200 rounds and more."""


def pytest_benchmark_update_json(config, benchmarks, output_json):
    for bench in output_json["benchmarks"]:
        bench["stats"].pop("data", None)
