"""The canonical social-network application from the paper's running example.

It declares the schema (profiles, friendships, statuses), registers the
paper's query templates — find friends, friends of friends, and friends with
upcoming birthdays — and exposes application-level operations
(add user, add friendship, post status, view pages) that the workload
generator can drive.  Everything goes through the public :class:`Scads` API;
the app never touches the storage substrate directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

from repro.core.engine import OperationOutcome, Scads
from repro.core.query.executor import QueryResult
from repro.core.schema import EntitySchema, Field, FieldType
from repro.workloads.opmix import Operation, OperationKind
from repro.workloads.social_graph import SocialGraph

# The paper's example bound: Facebook limits users to 5 000 friends.
DEFAULT_FRIEND_CAP = 5000
# Status updates declared per user (the statuses entity's partition bound).
STATUS_CAP = 1000
# Bulk loading settles the maintenance queue after every this many writes.
LOAD_FLUSH_EVERY = 5000


@dataclass
class AppStats:
    """Counters of application-level operations executed."""

    statuses_posted: int = 0
    page_views: int = 0
    failed_operations: int = 0


class SocialNetworkApp:
    """Friends, profiles, statuses, and birthday queries on top of SCADS."""

    def __init__(
        self,
        engine: Scads,
        friend_cap: int = DEFAULT_FRIEND_CAP,
        page_size: int = 20,
        register_friends_of_friends: bool = True,
    ) -> None:
        self.engine = engine
        self.friend_cap = friend_cap
        self.page_size = page_size
        self.stats = AppStats()
        self._declare_schema()
        self._register_queries(register_friends_of_friends)
        # Without the friends-of-friends template its page falls back to the
        # friend list.
        self._read_friends_of_friends = (
            self.friends_of_friends_page if register_friends_of_friends
            else self.friends_page)

    # -------------------------------------------------------------------- schema

    def _declare_schema(self) -> None:
        self.engine.register_entity(
            EntitySchema(
                name="profiles",
                key_fields=[Field("user_id", FieldType.STRING)],
                value_fields=[
                    Field("name", FieldType.STRING),
                    Field("birthday", FieldType.STRING),
                    Field("hometown", FieldType.STRING),
                ],
            )
        )
        self.engine.register_entity(
            EntitySchema(
                name="friendships",
                key_fields=[
                    Field("f1", FieldType.STRING),
                    Field("f2", FieldType.STRING),
                ],
                max_per_partition=self.friend_cap,
                column_bounds={"f2": self.friend_cap},
            )
        )
        self.engine.register_entity(
            EntitySchema(
                name="statuses",
                key_fields=[
                    Field("user_id", FieldType.STRING),
                    Field("status_id", FieldType.INT),
                ],
                value_fields=[Field("text", FieldType.STRING)],
                max_per_partition=STATUS_CAP,
            )
        )

    def _register_queries(self, register_friends_of_friends: bool) -> None:
        # Figure 3 row 1: the friend index.
        self.engine.register_query(
            "friends",
            f"SELECT * FROM friendships WHERE f1 = <user_id> LIMIT {self.friend_cap}",
        )
        # Figure 3 rows 3-4: friends with upcoming birthdays (the paper's
        # example template), answered by the birthday index.
        self.engine.register_query(
            "friend_birthdays",
            "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
            "WHERE f.f1 = <user_id> ORDER BY p.birthday "
            f"LIMIT {self.page_size}",
        )
        # Recent statuses for a profile page.
        self.engine.register_query(
            "recent_statuses",
            "SELECT * FROM statuses WHERE user_id = <user_id> "
            f"ORDER BY status_id DESC LIMIT {self.page_size}",
        )
        # Figure 3 row 2: friends of friends (bounded, needs a LIMIT to read).
        if register_friends_of_friends:
            self.engine.register_query(
                "friends_of_friends",
                "SELECT p.* FROM friendships f JOIN friendships g ON f.f2 = g.f1 "
                "JOIN profiles p ON g.f2 = p.user_id WHERE f.f1 = <user_id> "
                f"LIMIT {self.page_size}",
            )

    # ------------------------------------------------------------------- writes

    def create_user(self, user_id: str, name: str, birthday: str,
                    hometown: str = "") -> OperationOutcome:
        """Add a user profile."""
        outcome = self.engine.put(
            "profiles",
            {"user_id": user_id, "name": name, "birthday": birthday, "hometown": hometown},
            session_id=user_id,
        )
        self._count(outcome)
        return outcome

    def add_friendship(self, a: str, b: str) -> List[OperationOutcome]:
        """Create a (symmetric) friendship: both directions are stored."""
        if a == b:
            raise ValueError("a user cannot befriend themselves")
        outcomes = [
            self.engine.put("friendships", {"f1": a, "f2": b}, session_id=a),
            self.engine.put("friendships", {"f1": b, "f2": a}, session_id=b),
        ]
        for outcome in outcomes:
            self._count(outcome)
        return outcomes

    def post_status(self, user_id: str, status_id: int, text: str) -> OperationOutcome:
        """Post a status update."""
        outcome = self.engine.put(
            "statuses",
            {"user_id": user_id, "status_id": status_id, "text": text},
            session_id=user_id,
        )
        self._count(outcome)
        if outcome.success:
            self.stats.statuses_posted += 1
        return outcome

    def update_profile(self, user_id: str, **fields: Any) -> OperationOutcome:
        """Update profile fields (e.g. hometown or birthday)."""
        current = self.engine.get("profiles", (user_id,), session_id=user_id)
        row = dict(current.row or {"user_id": user_id, "name": "", "birthday": "01-01"})
        row.update(fields)
        row["user_id"] = user_id
        outcome = self.engine.put("profiles", row, session_id=user_id)
        self._count(outcome)
        return outcome

    # -------------------------------------------------------------------- reads

    def view_profile(self, viewer_id: str, user_id: str) -> OperationOutcome:
        """Read one profile (a page view)."""
        outcome = self.engine.get("profiles", (user_id,), session_id=viewer_id)
        self.stats.page_views += 1
        self._count(outcome)
        return outcome

    def friends_page(self, user_id: str) -> QueryResult:
        """The user's friend list (friend index lookup)."""
        self.stats.page_views += 1
        return self.engine.query("friends", {"user_id": user_id}, session_id=user_id)

    def birthdays_page(self, user_id: str) -> QueryResult:
        """Friends with upcoming birthdays (the paper's example query)."""
        self.stats.page_views += 1
        return self.engine.query("friend_birthdays", {"user_id": user_id}, session_id=user_id)

    def friends_of_friends_page(self, user_id: str) -> QueryResult:
        """People the user might know (friends-of-friends index lookup)."""
        self.stats.page_views += 1
        return self.engine.query("friends_of_friends", {"user_id": user_id}, session_id=user_id)

    # --------------------------------------------------------------- bulk loading

    def load_graph(self, graph: SocialGraph) -> None:
        """Bulk-load a synthetic social graph (profiles plus friendships).

        The maintenance queue is drained every ``LOAD_FLUSH_EVERY`` writes
        so the bulk load does not build an unbounded backlog before the
        experiment proper starts.
        """
        writes = 0
        for user_id in graph.users():
            profile = graph.profile(user_id)
            self.create_user(user_id, profile.name, profile.birthday, profile.hometown)
            writes += 1
            if writes % LOAD_FLUSH_EVERY == 0:
                self.engine.settle(seconds=1.0)
        for a, b in graph.friendships():
            self.add_friendship(a, b)
            writes += 2
            if writes % LOAD_FLUSH_EVERY == 0:
                self.engine.settle(seconds=1.0)
        self.engine.settle(seconds=2.0)

    # ----------------------------------------------------------- workload driving

    def execute(self, operation: Operation) -> None:
        """Execute one workload operation (the LoadGenerator callback)."""
        kind = operation.kind
        if kind is OperationKind.READ_PROFILE:
            self.view_profile(operation.user_id, operation.target_id or operation.user_id)
        elif kind is OperationKind.READ_FRIENDS:
            self.friends_page(operation.user_id)
        elif kind is OperationKind.READ_FRIEND_BIRTHDAYS:
            self.birthdays_page(operation.user_id)
        elif kind is OperationKind.READ_FRIENDS_OF_FRIENDS:
            self._read_friends_of_friends(operation.user_id)
        elif kind is OperationKind.POST_STATUS:
            status_id = self.stats.statuses_posted + self.stats.page_views + 1
            text = (operation.payload or {}).get("text", "")
            self.post_status(operation.user_id, status_id, text)
        elif kind is OperationKind.ADD_FRIEND:
            target = operation.target_id
            if target is not None and target != operation.user_id:
                self.add_friendship(operation.user_id, target)
        elif kind is OperationKind.UPDATE_PROFILE:
            self.update_profile(operation.user_id, **(operation.payload or {}))
        else:  # pragma: no cover - exhaustive over OperationKind
            raise ValueError(f"unknown operation kind: {kind}")

    # ------------------------------------------------------------------ internals

    def _count(self, outcome: OperationOutcome) -> None:
        if not outcome.success:
            self.stats.failed_operations += 1
