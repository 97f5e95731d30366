"""Synthetic social graph with bounded per-user degree.

The paper's scale-independence argument rests on per-user fan-out being
bounded by an application constant (Facebook's 5 000-friend limit is its
example), while the *population* grows without bound.  The generator produces
exactly that: heavy-tailed friend counts truncated at a configurable cap,
plus per-user profile fields (birthday, hometown) used by the Figure-3
query templates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

import numpy as np


HOMETOWNS = (
    "berkeley", "san-francisco", "oakland", "palo-alto", "seattle",
    "new-york", "austin", "chicago", "boston", "portland",
)


@dataclass
class UserProfile:
    """Profile fields for one synthetic user."""

    user_id: str
    name: str
    birthday: str  # "MM-DD" — what the upcoming-birthdays query sorts on
    hometown: str
    signup_day: int


class SocialGraph:
    """An undirected friendship graph with a hard per-user degree cap.

    Args:
        n_users: number of users to generate.
        max_friends: hard cap on any user's friend count (the paper's K).
        mean_friends: target mean degree before capping.
        rng: numpy random generator (pass one derived from the experiment seed).
    """

    def __init__(
        self,
        n_users: int,
        rng: np.random.Generator,
        max_friends: int = 5000,
        mean_friends: float = 50.0,
    ) -> None:
        if n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {n_users}")
        if max_friends < 1:
            raise ValueError(f"max_friends must be >= 1, got {max_friends}")
        if mean_friends <= 0:
            raise ValueError(f"mean_friends must be positive, got {mean_friends}")
        self.n_users = n_users
        self.max_friends = max_friends
        self.mean_friends = mean_friends
        self._rng = rng
        self.profiles: Dict[str, UserProfile] = {}
        self._friends: Dict[str, Set[str]] = {}
        self._generate()

    # --------------------------------------------------------------- generation

    def _user_id(self, index: int) -> str:
        return f"u{index:08d}"

    def _generate(self) -> None:
        months_days = [(m, d) for m in range(1, 13) for d in range(1, 29)]
        for i in range(self.n_users):
            user_id = self._user_id(i)
            month, day = months_days[int(self._rng.integers(0, len(months_days)))]
            self.profiles[user_id] = UserProfile(
                user_id=user_id,
                name=f"user-{i}",
                birthday=f"{month:02d}-{day:02d}",
                hometown=HOMETOWNS[int(self._rng.integers(0, len(HOMETOWNS)))],
                signup_day=int(self._rng.integers(0, 365)),
            )
            self._friends[user_id] = set()
        self._generate_edges()

    def _generate_edges(self) -> None:
        """Preferential-attachment-flavoured edges with a hard degree cap.

        Each user draws a target degree from a geometric distribution (heavy
        tail of very social users), then connects to users chosen with a bias
        toward earlier (already well-connected) users, skipping anyone at the
        cap.  For single-user graphs there is nothing to connect.
        """
        if self.n_users == 1:
            return
        user_ids = list(self.profiles.keys())
        p = 1.0 / self.mean_friends
        for i, user_id in enumerate(user_ids):
            target = int(min(self._rng.geometric(p), self.max_friends))
            attempts = 0
            while len(self._friends[user_id]) < target and attempts < target * 4:
                attempts += 1
                if self._rng.random() < 0.7 and i > 0:
                    # Bias toward earlier users: preferential-attachment flavour.
                    j = int(self._rng.integers(0, i))
                else:
                    j = int(self._rng.integers(0, self.n_users))
                other = user_ids[j]
                if other == user_id:
                    continue
                if len(self._friends[other]) >= self.max_friends:
                    continue
                if len(self._friends[user_id]) >= self.max_friends:
                    break
                self._friends[user_id].add(other)
                self._friends[other].add(user_id)

    # ------------------------------------------------------------------ queries

    def users(self) -> List[str]:
        """All user ids, in generation order."""
        return list(self.profiles.keys())

    def profile(self, user_id: str) -> UserProfile:
        return self.profiles[user_id]

    def friend_count(self, user_id: str) -> int:
        return len(self._friends[user_id])

    def friendships(self) -> Iterator[Tuple[str, str]]:
        """Every undirected friendship exactly once (smaller id first)."""
        for user_id, friends in self._friends.items():
            for other in friends:
                if user_id < other:
                    yield user_id, other

    def mean_degree(self) -> float:
        """The average friend count."""
        if not self._friends:
            return 0.0
        return float(np.mean([len(f) for f in self._friends.values()]))
