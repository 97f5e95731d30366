"""Unit tests for the performance-safe query language: lexer, parser,
analyzer (scale-independence checking), and compiler."""

from __future__ import annotations

import pytest

from repro.core.query.analyzer import QueryAnalyzer, QueryRejected, RejectionReason
from repro.core.query.ast import ColumnRef, Literal, Parameter
from repro.core.query.compiler import CompileError, QueryCompiler
from repro.core.query.lexer import LexError, TokenType, tokenize
from repro.core.query.parser import ParseError, parse_query
from repro.core.schema import EntitySchema, Field, FieldType, SchemaRegistry

pytestmark = pytest.mark.tier1

FRIEND_CAP = 5000


def social_registry(friend_cap=FRIEND_CAP, status_cap=1000, follower_bound=None):
    registry = SchemaRegistry()
    registry.register_entity(EntitySchema(
        name="profiles",
        key_fields=[Field("user_id")],
        value_fields=[Field("name"), Field("birthday"), Field("hometown")],
    ))
    registry.register_entity(EntitySchema(
        name="friendships",
        key_fields=[Field("f1"), Field("f2")],
        max_per_partition=friend_cap,
        column_bounds={"f2": friend_cap},
    ))
    registry.register_entity(EntitySchema(
        name="statuses",
        key_fields=[Field("user_id"), Field("status_id", FieldType.INT)],
        value_fields=[Field("text")],
        max_per_partition=status_cap,
    ))
    # Twitter-style follows: unbounded unless follower_bound is given.
    registry.register_entity(EntitySchema(
        name="follows",
        key_fields=[Field("follower"), Field("followee")],
        max_per_partition=follower_bound,
    ))
    return registry


BIRTHDAY_SQL = (
    "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
    "WHERE f.f1 = <user_id> ORDER BY p.birthday LIMIT 20"
)


# ---------------------------------------------------------------------- lexer


class TestLexer:
    def test_parameters_are_single_tokens(self):
        tokens = tokenize("WHERE f1 = <user_id>")
        kinds = [t.token_type for t in tokens]
        assert TokenType.PARAMETER in kinds
        parameter = [t for t in tokens if t.token_type is TokenType.PARAMETER][0]
        assert parameter.value == "user_id"

    def test_comparison_operators_still_lex(self):
        tokens = tokenize("a < 5 AND b >= 3")
        operators = [t.value for t in tokens if t.token_type is TokenType.OPERATOR]
        assert operators == ["<", ">="]

    def test_keywords_are_case_insensitive(self):
        tokens = tokenize("select * FROM t")
        assert tokens[0].is_keyword("select")
        assert tokens[2].is_keyword("from")

    def test_string_literals(self):
        tokens = tokenize("hometown = 'berkeley'")
        strings = [t for t in tokens if t.token_type is TokenType.STRING]
        assert strings[0].value == "berkeley"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize("name = 'oops")

    def test_numbers_int_and_float(self):
        tokens = tokenize("LIMIT 10 AND x = 2.5")
        numbers = [t.value for t in tokens if t.token_type is TokenType.NUMBER]
        assert numbers == [10, 2.5]

    def test_unknown_character_raises(self):
        with pytest.raises(LexError):
            tokenize("SELECT ; FROM t")


# --------------------------------------------------------------------- parser


class TestParser:
    def test_parses_the_papers_example(self):
        template = parse_query(BIRTHDAY_SQL)
        assert template.from_table == "friendships"
        assert template.from_alias == "f"
        assert len(template.joins) == 1
        assert template.joins[0].table == "profiles"
        assert template.order_by is not None
        assert template.order_by.column.column == "birthday"
        assert template.limit == 20
        assert [predicate.value.name for predicate in template.where] == ["user_id"]

    def test_select_star_variants(self):
        assert parse_query("SELECT * FROM t WHERE a = <x>").select[0].is_star
        template = parse_query("SELECT p.* FROM t p WHERE a = <x>")
        assert template.select[0].star_alias == "p"

    def test_select_column_list(self):
        template = parse_query("SELECT a, p.b FROM t p WHERE a = <x>")
        assert template.select[0].column == ColumnRef(None, "a")
        assert template.select[1].column == ColumnRef("p", "b")

    def test_where_with_literals_and_parameters(self):
        template = parse_query("SELECT * FROM t WHERE a = <x> AND b = 'lit' AND c >= 3")
        assert len(template.where) == 3
        assert isinstance(template.where[0].value, Parameter)
        assert isinstance(template.where[1].value, Literal)
        assert template.where[2].op == ">="

    def test_between_predicate(self):
        template = parse_query("SELECT * FROM t WHERE a = <x> AND b BETWEEN 1 AND 5")
        predicate = template.where[1]
        assert predicate.op == "between"
        assert predicate.value.value == 1
        assert predicate.value_high.value == 5

    def test_order_by_desc(self):
        template = parse_query("SELECT * FROM t WHERE a = <x> ORDER BY b DESC")
        assert template.order_by.descending

    def test_or_is_rejected_with_guidance(self):
        with pytest.raises(ParseError, match="OR is not supported"):
            parse_query("SELECT * FROM t WHERE a = <x> OR b = <x>")

    def test_non_equality_join_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT * FROM t JOIN s ON t.a < s.b WHERE t.a = <x>")

    def test_limit_must_be_positive_integer(self):
        with pytest.raises(ParseError):
            parse_query("SELECT * FROM t WHERE a = <x> LIMIT 0")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT * FROM t WHERE a = <x> LIMIT 5 garbage")

    def test_empty_text_rejected(self):
        with pytest.raises(ParseError):
            parse_query("   ")

    def test_missing_from_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT *")


# ------------------------------------------------------------------- analyzer


class TestAnalyzerAdmission:
    def _analyze(self, sql, registry=None, **caps):
        analyzer = QueryAnalyzer(registry or social_registry())
        for name, value in caps.items():
            setattr(analyzer, name, value)
        return analyzer.analyze(parse_query(sql))

    def test_paper_birthday_query_is_admitted(self):
        analyzed = self._analyze(BIRTHDAY_SQL)
        assert analyzed.anchor_parameter == "user_id"
        assert [step.entity.name for step in analyzed.chain] == ["friendships", "profiles"]
        assert analyzed.sort_column == ("p", "birthday")
        assert analyzed.read_work_bound == 20
        assert analyzed.update_work_bound == FRIEND_CAP

    def test_single_table_query_admitted(self):
        analyzed = self._analyze(
            "SELECT * FROM statuses WHERE user_id = <u> ORDER BY status_id DESC LIMIT 10"
        )
        assert analyzed.result_bound == 1000
        assert analyzed.read_work_bound == 10
        assert analyzed.update_work_bound == 1

    def test_friends_of_friends_admitted_with_limit(self):
        sql = (
            "SELECT p.* FROM friendships f JOIN friendships g ON f.f2 = g.f1 "
            "JOIN profiles p ON g.f2 = p.user_id WHERE f.f1 = <u> LIMIT 20"
        )
        analyzed = self._analyze(sql)
        assert analyzed.result_bound == FRIEND_CAP * FRIEND_CAP
        assert analyzed.read_work_bound == 20
        # Maintenance work is bounded by one friend-list traversal, not K^2.
        assert analyzed.update_work_bound == FRIEND_CAP

    def test_query_without_parameter_rejected(self):
        with pytest.raises(QueryRejected) as excinfo:
            self._analyze("SELECT * FROM profiles WHERE hometown = 'berkeley'")
        assert excinfo.value.reason is RejectionReason.NO_PARAMETERISED_EQUALITY

    def test_non_key_anchor_rejected(self):
        with pytest.raises(QueryRejected) as excinfo:
            self._analyze("SELECT * FROM profiles WHERE hometown = <town>")
        assert excinfo.value.reason is RejectionReason.ANCHOR_NOT_KEY_PREFIX

    def test_twitter_style_unbounded_fanout_rejected(self):
        with pytest.raises(QueryRejected) as excinfo:
            self._analyze("SELECT * FROM follows WHERE follower = <u> LIMIT 10")
        assert excinfo.value.reason is RejectionReason.UNBOUNDED_ANCHOR

    def test_twitter_join_rejected_even_with_limit(self):
        sql = (
            "SELECT p.* FROM follows f JOIN profiles p ON f.followee = p.user_id "
            "WHERE f.follower = <u> LIMIT 10"
        )
        with pytest.raises(QueryRejected) as excinfo:
            self._analyze(sql)
        assert excinfo.value.reason is RejectionReason.UNBOUNDED_ANCHOR

    def test_bounded_follows_is_admitted(self):
        registry = social_registry(follower_bound=2000)
        analyzed = self._analyze(
            "SELECT * FROM follows WHERE follower = <u> LIMIT 10", registry=registry
        )
        assert analyzed.result_bound == 2000

    def test_join_into_an_unbounded_entity_rejected(self):
        # The entity bounds are the declared cardinality of a join: without
        # one the fan-out grows with the population; with one it is the bound.
        sql = ("SELECT g.* FROM friendships f JOIN follows g ON f.f2 = g.follower "
               "WHERE f.f1 = <u> LIMIT 10")
        with pytest.raises(QueryRejected) as excinfo:
            self._analyze(sql)
        assert excinfo.value.reason is RejectionReason.UNBOUNDED_JOIN
        analyzed = self._analyze(sql, registry=social_registry(follower_bound=50))
        assert analyzed.chain[1].forward_fanout == 50
        assert analyzed.result_bound == FRIEND_CAP * 50

    def test_missing_limit_on_large_result_rejected(self):
        sql = (
            "SELECT p.* FROM friendships f JOIN friendships g ON f.f2 = g.f1 "
            "JOIN profiles p ON g.f2 = p.user_id WHERE f.f1 = <u>"
        )
        with pytest.raises(QueryRejected) as excinfo:
            self._analyze(sql)
        assert excinfo.value.reason is RejectionReason.READ_WORK_UNBOUNDED

    def test_update_work_cap_enforced(self):
        with pytest.raises(QueryRejected) as excinfo:
            self._analyze(BIRTHDAY_SQL, max_update_work=100)
        assert excinfo.value.reason is RejectionReason.UPDATE_WORK_EXCEEDED

    def test_read_work_cap_enforced(self):
        with pytest.raises(QueryRejected) as excinfo:
            self._analyze(
                "SELECT * FROM friendships WHERE f1 = <u> LIMIT 5000", max_read_work=100
            )
        assert excinfo.value.reason is RejectionReason.READ_WORK_EXCEEDED

    def test_unknown_entity_rejected(self):
        with pytest.raises(QueryRejected) as excinfo:
            self._analyze("SELECT * FROM nonexistent WHERE a = <x>")
        assert excinfo.value.reason is RejectionReason.UNKNOWN_ENTITY

    def test_unknown_column_rejected(self):
        with pytest.raises(QueryRejected) as excinfo:
            self._analyze("SELECT * FROM profiles WHERE nonexistent = <x>")
        assert excinfo.value.reason is RejectionReason.UNKNOWN_COLUMN

    def test_parameter_off_anchor_rejected(self):
        sql = (
            "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
            "WHERE f.f1 = <u> AND p.user_id = <v> LIMIT 5"
        )
        with pytest.raises(QueryRejected) as excinfo:
            self._analyze(sql)
        assert excinfo.value.reason is RejectionReason.MULTIPLE_ANCHORS

    def test_disconnected_join_rejected(self):
        sql = (
            "SELECT p.* FROM friendships f JOIN profiles p ON p.user_id = p.user_id "
            "WHERE f.f1 = <u> LIMIT 5"
        )
        with pytest.raises(QueryRejected) as excinfo:
            self._analyze(sql)
        assert excinfo.value.reason is RejectionReason.NON_LINEAR_JOIN

    def test_range_predicate_becomes_sort_column(self):
        analyzed = self._analyze(
            "SELECT * FROM statuses WHERE user_id = <u> AND status_id > 100 LIMIT 10"
        )
        assert analyzed.sort_column == ("statuses", "status_id")
        assert analyzed.range_predicate is not None

    def test_range_predicate_off_sort_rejected(self):
        sql = (
            "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
            "WHERE f.f1 = <u> AND p.hometown > 'a' ORDER BY p.birthday LIMIT 5"
        )
        with pytest.raises(QueryRejected) as excinfo:
            self._analyze(sql)
        assert excinfo.value.reason is RejectionReason.RANGE_NOT_ON_SORT

    def test_multiple_range_predicates_rejected(self):
        sql = (
            "SELECT * FROM statuses WHERE user_id = <u> "
            "AND status_id > 1 AND status_id < 100 AND text > 'a' LIMIT 5"
        )
        with pytest.raises(QueryRejected) as excinfo:
            self._analyze(sql)
        assert excinfo.value.reason is RejectionReason.MULTIPLE_RANGE_PREDICATES

    def test_residual_literal_filters_rejected(self):
        # The index key cannot answer a filter off it, and filtering after the
        # LIMIT would return short pages: the template is refused, not admitted
        # with the filter dropped.
        sql = (
            "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
            "WHERE f.f1 = <u> AND p.hometown = 'berkeley' ORDER BY p.birthday LIMIT 5"
        )
        with pytest.raises(QueryRejected) as excinfo:
            self._analyze(sql)
        assert excinfo.value.reason is RejectionReason.RESIDUAL_FILTER
        assert "p.hometown = 'berkeley'" in str(excinfo.value)


# ------------------------------------------------------------------- compiler


class TestCompiler:
    def _compile(self, name, sql, compiler=None, registry=None):
        registry = registry or social_registry()
        analyzer = QueryAnalyzer(registry)
        compiler = compiler or QueryCompiler()
        return compiler.compile(name, analyzer.analyze(parse_query(sql))), compiler

    def test_birthday_index_layout(self):
        compiled, _ = self._compile("friend_birthdays", BIRTHDAY_SQL)
        spec = compiled.index_spec
        assert spec.anchor_entity == "friendships"
        assert spec.anchor_column == "f1"
        assert spec.final_entity == "profiles"
        assert spec.sort_column == "birthday"
        assert spec.sort_owner == "final"
        # Key (user_id, birthday, friend_user_id): anchor, sort, final key.
        assert spec.extra_anchor_columns == [] and spec.has_sort
        assert len(spec.final_key_fields) == 1
        assert spec.namespace == "index:idx_friend_birthdays"

    def test_birthday_maintenance_rules_match_figure_3(self):
        compiled, _ = self._compile("friend_birthdays", BIRTHDAY_SQL)
        rows = {(r.table, r.field) for r in compiled.maintenance_rules
                if r.index_name == compiled.index_spec.name}
        assert rows == {("friendships", "*"), ("profiles", "birthday")}

    def test_friend_index_maintenance_rule(self):
        compiled, _ = self._compile(
            "friends", "SELECT * FROM friendships WHERE f1 = <u> LIMIT 5000"
        )
        rows = {(r.table, r.field) for r in compiled.maintenance_rules}
        assert rows == {("friendships", "*")}

    def test_friends_of_friends_needs_reverse_index(self):
        sql = (
            "SELECT p.* FROM friendships f JOIN friendships g ON f.f2 = g.f1 "
            "JOIN profiles p ON g.f2 = p.user_id WHERE f.f1 = <u> LIMIT 20"
        )
        compiled, _ = self._compile("fof", sql)
        assert len(compiled.reverse_indexes) == 1
        reverse = compiled.reverse_indexes[0]
        assert reverse.entity == "friendships"
        assert reverse.column == "f2"

    def test_friends_of_friends_has_no_profile_rule(self):
        sql = (
            "SELECT p.* FROM friendships f JOIN friendships g ON f.f2 = g.f1 "
            "JOIN profiles p ON g.f2 = p.user_id WHERE f.f1 = <u> LIMIT 20"
        )
        compiled, _ = self._compile("fof", sql)
        assert not any(
            r.table == "profiles" and r.index_name == compiled.index_spec.name
            for r in compiled.maintenance_rules
        )

    def test_cascade_source_reported_like_figure_3(self):
        compiler = QueryCompiler()
        self._compile("friends", "SELECT * FROM friendships WHERE f1 = <u> LIMIT 5000",
                      compiler=compiler)
        sql = (
            "SELECT p.* FROM friendships f JOIN friendships g ON f.f2 = g.f1 "
            "JOIN profiles p ON g.f2 = p.user_id WHERE f.f1 = <u> LIMIT 20"
        )
        compiled, _ = self._compile("fof", sql, compiler=compiler)
        friendship_rules = [r for r in compiled.maintenance_rules
                            if r.index_name == compiled.index_spec.name]
        assert any(r.display_table() == "idx_friends" for r in friendship_rules)

    def test_plan_prefix_and_limit(self):
        compiled, _ = self._compile("friend_birthdays", BIRTHDAY_SQL)
        plan = compiled.plan
        assert [c.kind for c in plan.prefix] == ["parameter"]
        assert plan.limit == 20
        assert plan.final_entity == "profiles"
        assert [c.value for c in plan.prefix if c.kind == "parameter"] == ["user_id"]

    def test_descending_plan(self):
        compiled, _ = self._compile(
            "recent", "SELECT * FROM statuses WHERE user_id = <u> ORDER BY status_id DESC LIMIT 10"
        )
        assert compiled.plan.descending

    def test_range_bound_in_plan(self):
        compiled, _ = self._compile(
            "since", "SELECT * FROM statuses WHERE user_id = <u> AND status_id > <cursor> LIMIT 10"
        )
        assert compiled.plan.range_bound is not None
        assert compiled.plan.range_bound.op == ">"
        bound = compiled.plan.range_bound
        assert "cursor" in {c.value for c in (bound.low, bound.high)
                            if c is not None and c.kind == "parameter"}

    def test_duplicate_query_name_rejected(self):
        compiler = QueryCompiler()
        self._compile("q", "SELECT * FROM friendships WHERE f1 = <u> LIMIT 10", compiler=compiler)
        with pytest.raises(CompileError):
            self._compile("q", "SELECT * FROM friendships WHERE f1 = <u> LIMIT 10",
                          compiler=compiler)

    def test_empty_name_rejected(self):
        with pytest.raises(CompileError):
            self._compile("", "SELECT * FROM friendships WHERE f1 = <u> LIMIT 10")
