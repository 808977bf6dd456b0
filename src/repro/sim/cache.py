"""Set-associative private caches with MESI line states.

Each simulated core owns one :class:`PrivateCache` (sized like the
private L2 of the paper's machine).  Unlike the model's
fully-associative LRU approximation, the simulator honours real set
indexing and per-set LRU replacement, which is what makes the
model-vs-simulator comparison a genuine validation of the paper's
fully-associative assumption (see the associativity ablation bench).

LRU is kept with *stamps*: every touch writes a fresh, ever-growing
stamp for the line, and the victim of a full set is its member with the
smallest stamp — the line touched least recently.  State changes that
are not touches (:meth:`set_state`, :meth:`downgrade`) keep the stamp,
and :meth:`invalidate` removes the line.  The three maps are plain
attributes so the simulator's inlined per-access loop can work on them
directly; the methods below define what that loop must do.
"""

from __future__ import annotations

from repro.util import is_power_of_two

#: MESI states as small ints (Invalid is represented by absence), so
#: ``state > S`` reads "M or E".
S = 1
E = 2
M = 3


class PrivateCache:
    """One core's private cache: ``num_sets`` LRU sets of ``ways`` lines.

    ``ways = 0`` selects a fully-associative cache (a single set).
    Lines are tracked by *line id* (byte address // line size); the
    caller is responsible for coherence actions on returned evictions.

    Attributes
    ----------
    states:
        ``line -> MESI state`` of every cached line.
    stamps:
        ``line -> stamp`` of its last touch (unique and increasing).
    sets:
        Per set index (``line & (num_sets - 1)``), the lines it holds.
    clock:
        The stamp the next touch receives.
    """

    __slots__ = ("num_sets", "ways", "states", "stamps", "sets", "clock")

    def __init__(self, num_lines: int, ways: int) -> None:
        if num_lines <= 0:
            raise ValueError("num_lines must be positive")
        if ways < 0:
            raise ValueError("ways must be >= 0 (0 = fully associative)")
        if ways == 0:
            self.num_sets = 1
            self.ways = num_lines
        else:
            if num_lines % ways:
                raise ValueError(
                    f"num_lines ({num_lines}) must divide by ways ({ways})"
                )
            self.num_sets = num_lines // ways
            self.ways = ways
            if not is_power_of_two(self.num_sets):
                raise ValueError(
                    f"set count must be a power of two, got {self.num_sets}"
                )
        self.states: dict[int, int] = {}
        self.stamps: dict[int, int] = {}
        self.sets: list[set[int]] = [set() for _ in range(self.num_sets)]
        self.clock = 0

    def state(self, line: int) -> int | None:
        """The line's MESI state, or ``None`` (Invalid)."""
        return self.states.get(line)

    def touch(self, line: int, state: int) -> int | None:
        """(Re-)insert ``line`` at MRU with ``state``; return any eviction."""
        self.states[line] = state
        self.stamps[line] = self.clock
        self.clock += 1
        members = self.sets[line & (self.num_sets - 1)]
        members.add(line)
        if len(members) > self.ways:
            victim = min(members, key=self.stamps.__getitem__)
            self.invalidate(victim)
            return victim
        return None

    def set_state(self, line: int, state: int) -> None:
        """Change state without affecting LRU order; line must be present."""
        if line not in self.states:
            raise KeyError(f"line {line} not cached")
        self.states[line] = state

    def invalidate(self, line: int) -> bool:
        """Drop a line (remote write); True when it was present."""
        if self.states.pop(line, None) is None:
            return False
        del self.stamps[line]
        self.sets[line & (self.num_sets - 1)].discard(line)
        return True

    def downgrade(self, line: int) -> bool:
        """M/E → S on a remote read; True when the state changed."""
        if self.states.get(line, S) > S:
            self.states[line] = S
            return True
        return False

    def occupancy(self) -> int:
        """Total lines currently cached."""
        return len(self.states)

    def lines(self) -> list[tuple[int, int]]:
        """All (line, state) pairs, least recently touched first."""
        order = sorted(self.stamps, key=self.stamps.__getitem__)
        return [(line, self.states[line]) for line in order]
