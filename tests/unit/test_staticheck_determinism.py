"""Red/green/pragma fixtures for the determinism.* rule family."""

from __future__ import annotations

from tests.staticheck_helpers import rules_of, run_tree


def test_wall_clock_flagged_in_core(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/sim/clock_user.py": (
                "import time\n"
                "\n"
                "def stamp():\n"
                "    return time.time()\n"
            )
        },
    )
    assert rules_of(violations) == ["determinism.wall-clock"]
    assert violations[0].line == 4


def test_wall_clock_via_from_import_and_datetime(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/core/clocks.py": (
                "from time import monotonic\n"
                "import datetime\n"
                "\n"
                "def a():\n"
                "    return monotonic()\n"
                "\n"
                "def b():\n"
                "    return datetime.datetime.now()\n"
            )
        },
    )
    assert rules_of(violations) == ["determinism.wall-clock"]
    assert len(violations) == 2


def test_wall_clock_outside_scope_not_flagged(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/analysis/report_time.py": (
                "import time\n"
                "\n"
                "def stamp():\n"
                "    return time.time()\n"
            )
        },
    )
    assert violations == []


def test_simulated_runtime_and_host_core_in_scope(tmp_path):
    """The simulated runtime and the host core are trace-critical; the
    asyncio runtime reads real clocks by design and stays out."""
    unordered = "def peers(ids):\n    return [sid for sid in set(ids)]\n"
    violations = run_tree(
        tmp_path,
        {
            "repro/runtime/sim_net.py": unordered,
            "repro/runtime/host.py": unordered,
            "repro/runtime/asyncio_net.py": unordered,
        },
    )
    assert sorted(violation.path for violation in violations) == [
        "repro/runtime/host.py",
        "repro/runtime/sim_net.py",
    ]
    assert set(rules_of(violations)) == {"determinism.unordered-iter"}


def test_global_rng_flagged_seeded_instance_allowed(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/sim/rng_user.py": (
                "import random\n"
                "from random import randint\n"
                "\n"
                "def bad():\n"
                "    return random.random() + randint(0, 9)\n"
                "\n"
                "def good():\n"
                "    rng = random.Random(7)\n"
                "    return rng.random()\n"
            )
        },
    )
    assert rules_of(violations) == ["determinism.global-rng"]
    assert len(violations) == 2
    assert all(violation.line == 5 for violation in violations)


def test_entropy_sources_flagged(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/transport/nonce.py": (
                "import os\n"
                "import uuid\n"
                "import secrets\n"
                "\n"
                "def nonce():\n"
                "    return os.urandom(8), uuid.uuid4(), secrets.token_bytes(8)\n"
            )
        },
    )
    assert rules_of(violations) == ["determinism.global-rng"]
    assert len(violations) == 3


def test_set_iteration_flagged_sorted_allowed(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/sim/members.py": (
                "def bad(names):\n"
                "    alive = {n for n in names}\n"
                "    order = []\n"
                "    for name in alive:\n"
                "        order.append(name)\n"
                "    return order\n"
                "\n"
                "def good(names):\n"
                "    alive = set(names)\n"
                "    return [name for name in sorted(alive)]\n"
                "\n"
                "def reducers(names):\n"
                "    alive = frozenset(names)\n"
                "    return min(n for n in alive), len(alive)\n"
            )
        },
    )
    assert rules_of(violations) == ["determinism.unordered-iter"]
    assert [violation.line for violation in violations] == [4]


def test_dict_comp_over_set_flagged(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/fd/suspects.py": (
                "def table(ids):\n"
                "    suspected = set(ids)\n"
                "    return {sid: True for sid in suspected}\n"
            )
        },
    )
    assert rules_of(violations) == ["determinism.unordered-iter"]


def test_pragma_suppresses_with_justification(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/sim/clock_user.py": (
                "import time\n"
                "\n"
                "def stamp():\n"
                "    return time.time()  # staticheck: allow(determinism.wall-clock)"
                " -- diagnostic only, nothing simulated reads it\n"
            )
        },
    )
    assert violations == []


def test_family_pragma_on_line_above(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/sim/clock_user.py": (
                "import time\n"
                "\n"
                "def stamp():\n"
                "    # staticheck: allow(determinism) -- wall time is reporting"
                " metadata only\n"
                "    return time.time()\n"
            )
        },
    )
    assert violations == []


def test_pragma_without_justification_is_a_violation(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/sim/clock_user.py": (
                "import time\n"
                "\n"
                "def stamp():\n"
                "    return time.time()  # staticheck: allow(determinism.wall-clock)\n"
            )
        },
    )
    assert rules_of(violations) == ["pragma.unjustified"]


def test_unused_pragma_is_a_violation(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/sim/tidy.py": (
                "def fine():  # staticheck: allow(determinism.wall-clock)"
                " -- nothing here needs this\n"
                "    return 1\n"
            )
        },
    )
    assert rules_of(violations) == ["pragma.unused"]
