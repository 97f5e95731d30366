"""CloudStone-like Web 2.0 operation mix.

The real CloudStone benchmark drives a social-events application with a mix
of browse-heavy interactive operations and a minority of writes.  This module
reproduces the *shape* of that workload against the SCADS social-network
schema: profile and friend-list reads dominate, with status posts, friend
additions, and profile edits forming the write tail.  The Halloween-spike
experiment (E5) raises the write fraction, matching the paper's observation
that photo-upload spikes are "particularly interesting, and difficult,
because they involve a significant percentage of writes."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.sim.randomness import ZipfGenerator
from repro.workloads.social_graph import SocialGraph


class OperationKind(enum.Enum):
    """The operation types the workload issues against the SCADS API."""

    READ_PROFILE = "read_profile"
    READ_FRIENDS = "read_friends"
    READ_FRIEND_BIRTHDAYS = "read_friend_birthdays"
    READ_FRIENDS_OF_FRIENDS = "read_friends_of_friends"
    POST_STATUS = "post_status"
    ADD_FRIEND = "add_friend"
    UPDATE_PROFILE = "update_profile"


# Default interactive mix: ~90 % reads / 10 % writes, browse-heavy.
DEFAULT_MIX: Dict[OperationKind, float] = {
    OperationKind.READ_PROFILE: 0.35,
    OperationKind.READ_FRIENDS: 0.25,
    OperationKind.READ_FRIEND_BIRTHDAYS: 0.20,
    OperationKind.READ_FRIENDS_OF_FRIENDS: 0.10,
    OperationKind.POST_STATUS: 0.06,
    OperationKind.ADD_FRIEND: 0.02,
    OperationKind.UPDATE_PROFILE: 0.02,
}

# Post-Halloween style mix: a much larger write share (photo/status uploads).
WRITE_HEAVY_MIX: Dict[OperationKind, float] = {
    OperationKind.READ_PROFILE: 0.25,
    OperationKind.READ_FRIENDS: 0.15,
    OperationKind.READ_FRIEND_BIRTHDAYS: 0.10,
    OperationKind.READ_FRIENDS_OF_FRIENDS: 0.05,
    OperationKind.POST_STATUS: 0.35,
    OperationKind.ADD_FRIEND: 0.05,
    OperationKind.UPDATE_PROFILE: 0.05,
}

# Cache-hostile scan: every operation is a read, but user popularity is
# *uniform* (pair with ``zipf_theta=0.0``), so no working set concentrates and
# a front-tier cache keeps missing.  The validation grid uses this to prove
# the cache tier degrades gracefully when its premise (skew) is absent.
UNIFORM_READ_MIX: Dict[OperationKind, float] = {
    OperationKind.READ_PROFILE: 0.50,
    OperationKind.READ_FRIENDS: 0.30,
    OperationKind.READ_FRIEND_BIRTHDAYS: 0.20,
}

WRITE_KINDS = {
    OperationKind.POST_STATUS,
    OperationKind.ADD_FRIEND,
    OperationKind.UPDATE_PROFILE,
}


@dataclass(frozen=True, slots=True)
class Operation:
    """One workload operation: what to do and on behalf of which user."""

    kind: OperationKind
    user_id: str
    target_id: Optional[str] = None
    payload: Optional[dict] = None

    @property
    def is_write(self) -> bool:
        return self.kind in WRITE_KINDS


class CloudStoneMix:
    """Draws operations against a social graph with Zipfian user popularity.

    Kind selection is a ``searchsorted`` against a cached cumulative mix over
    *pooled* uniforms rather than a per-operation ``Generator.choice`` call —
    same draw distribution and, for a dedicated stream, the identical kind
    sequence, at a tiny fraction of the cost (``choice(p=...)`` re-validates
    and re-normalises the weights on every call).
    """

    POOL_BLOCK = 1024

    def __init__(
        self,
        graph: SocialGraph,
        rng: np.random.Generator,
        mix: Optional[Dict[OperationKind, float]] = None,
        zipf_theta: float = 0.8,
    ) -> None:
        self.graph = graph
        self._rng = rng
        self._mix: Dict[OperationKind, float] = {}
        self._kinds: List[OperationKind] = []
        self._kind_cdf = np.empty(0)
        self._pool: List[OperationKind] = []
        self._pool_index = 0
        self.set_mix(mix or DEFAULT_MIX)
        self._zipf = ZipfGenerator(graph.n_users, zipf_theta, rng)
        self._users = graph.users()
        self._status_counter = 0

    def set_mix(self, mix: Dict[OperationKind, float]) -> None:
        """Swap the operation mix (e.g. to the write-heavy spike mix) mid-run."""
        total = sum(mix.values())
        if total <= 0:
            raise ValueError("operation mix weights must sum to a positive value")
        if any(weight < 0 for weight in mix.values()):
            raise ValueError("operation mix weights must be non-negative")
        self._mix = {kind: weight / total for kind, weight in mix.items()}
        self._kinds = list(self._mix.keys())
        cdf = np.cumsum(np.fromiter(self._mix.values(), dtype=float))
        cdf /= cdf[-1]  # exact 1.0 endpoint: searchsorted can never overrun
        self._kind_cdf = cdf
        # Pre-drawn kind choices were made under the old mix; drop them so a
        # mid-run mix swap (the Halloween spike) takes effect immediately.
        self._pool = []
        self._pool_index = 0

    def _pick_user(self) -> str:
        return self._users[self._zipf.draw()]

    def _pick_kind(self) -> OperationKind:
        index = self._pool_index
        pool = self._pool
        if index >= len(pool):
            # searchsorted runs vectorized over the whole refill block, so a
            # per-operation kind choice is two list lookups.
            kinds = self._kinds
            indices = np.searchsorted(self._kind_cdf, self._rng.random(self.POOL_BLOCK))
            pool = self._pool = [kinds[i] for i in indices.tolist()]
            index = 0
        self._pool_index = index + 1
        return pool[index]

    def next_operation(self) -> Operation:
        """Draw the next operation from the mix."""
        kind = self._pick_kind()
        user_id = self._pick_user()
        if kind is OperationKind.READ_PROFILE:
            target = self._pick_user()
            return Operation(kind=kind, user_id=user_id, target_id=target)
        if kind in (OperationKind.READ_FRIENDS, OperationKind.READ_FRIEND_BIRTHDAYS,
                    OperationKind.READ_FRIENDS_OF_FRIENDS):
            return Operation(kind=kind, user_id=user_id)
        if kind is OperationKind.POST_STATUS:
            self._status_counter += 1
            return Operation(
                kind=kind,
                user_id=user_id,
                payload={"text": f"status #{self._status_counter} from {user_id}"},
            )
        if kind is OperationKind.ADD_FRIEND:
            target = self._pick_user()
            while target == user_id and self.graph.n_users > 1:
                target = self._pick_user()
            return Operation(kind=kind, user_id=user_id, target_id=target)
        # UPDATE_PROFILE: change hometown (keeps birthday stable so the
        # birthday-index maintenance path is driven by ADD_FRIEND instead).
        return Operation(
            kind=kind,
            user_id=user_id,
            payload={"hometown": f"town-{int(self._rng.integers(0, 50))}"},
        )
