"""The symptom catalog of Table I.

*Symptoms* are source-code features observed on a candidate vulnerable
data-flow path — mostly PHP functions that manipulate or validate the entry
point.  *Attributes* are what the classifiers see.

* Original WAP: 15 feature attributes + 1 class attribute = **16**; the
  feature attributes summarize **24** function symptoms (a whole attribute
  group collapses to one bit).
* New WAP (this paper): every symptom is its own attribute — **60** symptom
  attributes + 1 class attribute = **61**.

Categories follow the table: ``validation``, ``string`` (string
manipulation) and ``sql`` (SQL query manipulation).
"""

from __future__ import annotations

from dataclasses import dataclass

CATEGORY_VALIDATION = "validation"
CATEGORY_STRING = "string"
CATEGORY_SQL = "sql"


@dataclass(frozen=True, slots=True)
class Symptom:
    """One symptom of Table I.

    Attributes:
        name: symptom identifier — a PHP function name, or a structural
            marker (``concat_op``, ``ComplexSQL``, ``FROM`` ...).
        attribute: the original-WAP attribute group it belongs to.
        category: validation / string / sql.
        original: True if the symptom was already in WAP v2.1's set of 24.
    """

    name: str
    attribute: str
    category: str
    original: bool


def _mk(attribute: str, category: str, original: list[str],
        new: list[str]) -> list[Symptom]:
    out = [Symptom(n, attribute, category, True) for n in original]
    out += [Symptom(n, attribute, category, False) for n in new]
    return out


#: The full Table I, row by row.
SYMPTOMS: tuple[Symptom, ...] = tuple(
    # -------------------------- validation ---------------------------
    _mk("type_checking", CATEGORY_VALIDATION,
        ["is_string", "is_int", "is_float", "is_numeric", "ctype_digit",
         "ctype_alpha", "ctype_alnum", "intval"],
        ["is_double", "is_integer", "is_long", "is_real", "is_scalar"])
    + _mk("entry_point_is_set", CATEGORY_VALIDATION,
          ["isset"],
          ["is_null", "empty"])
    + _mk("pattern_control", CATEGORY_VALIDATION,
          ["preg_match", "ereg", "eregi", "strnatcmp", "strcmp",
           "strncmp", "strncasecmp", "strcasecmp"],
          ["preg_match_all"])
    + _mk("white_list", CATEGORY_VALIDATION, [], ["user_whitelist"])
    + _mk("black_list", CATEGORY_VALIDATION, [], ["user_blacklist"])
    + _mk("error_exit", CATEGORY_VALIDATION, [], ["error", "exit"])
    # ----------------------- string manipulation ---------------------
    + _mk("extract_substring", CATEGORY_STRING,
          ["substr"],
          ["preg_split", "str_split", "explode", "split", "spliti"])
    + _mk("string_concat", CATEGORY_STRING,
          ["concat_op"],
          ["implode", "join"])
    + _mk("add_char", CATEGORY_STRING,
          ["addchar"],
          ["str_pad"])
    + _mk("replace_string", CATEGORY_STRING,
          ["substr_replace", "str_replace", "preg_replace"],
          ["preg_filter", "ereg_replace", "eregi_replace", "str_ireplace",
           "str_shuffle", "chunk_split"])
    + _mk("remove_whitespace", CATEGORY_STRING,
          ["trim"],
          ["rtrim", "ltrim"])
    # ---------------------- SQL query manipulation -------------------
    # ComplexSQL and IsNum were structural *attributes* of the original
    # WAP (not function symptoms, hence not part of the 24); in the new
    # version they are symptoms like everything else.
    + _mk("complex_query", CATEGORY_SQL, [], ["ComplexSQL"])
    + _mk("numeric_entry_point", CATEGORY_SQL, [], ["IsNum"])
    + _mk("from_clause", CATEGORY_SQL, [], ["FROM"])
    + _mk("aggregated_function", CATEGORY_SQL,
          [], ["AVG", "COUNT", "SUM", "MAX", "MIN"])
)

#: ordered original-WAP attribute groups (15 feature attributes).
ORIGINAL_ATTRIBUTE_GROUPS: tuple[str, ...] = (
    "type_checking", "entry_point_is_set", "pattern_control",
    "white_list", "black_list", "error_exit",
    "extract_substring", "string_concat", "add_char", "replace_string",
    "remove_whitespace",
    "complex_query", "numeric_entry_point", "from_clause",
    "aggregated_function",
)

_BY_NAME: dict[str, Symptom] = {s.name: s for s in SYMPTOMS}

#: PHP alias functions mapped onto their canonical symptom name.
SYMPTOM_ALIASES: dict[str, str] = {
    "sizeof": "",            # explicitly NOT a symptom (see §V-A)
    "md5": "",               # idem
    "die": "exit",
    "trigger_error": "error",
    "user_error": "error",
}


def get_symptom(name: str) -> Symptom | None:
    """Look up a symptom by (alias-resolved) name; None if not a symptom."""
    name = SYMPTOM_ALIASES.get(name, name)
    if not name:
        return None
    return _BY_NAME.get(name)


def all_symptoms() -> tuple[Symptom, ...]:
    return SYMPTOMS


def original_symptoms() -> tuple[Symptom, ...]:
    """The 24 function symptoms WAP v2.1 recognized."""
    return tuple(s for s in SYMPTOMS if s.original)


def new_symptoms() -> tuple[Symptom, ...]:
    return tuple(s for s in SYMPTOMS if not s.original)


def symptoms_by_category(category: str) -> tuple[Symptom, ...]:
    return tuple(s for s in SYMPTOMS if s.category == category)


def attribute_groups() -> dict[str, list[Symptom]]:
    """Symptoms grouped by their original attribute."""
    out: dict[str, list[Symptom]] = {g: [] for g in
                                     ORIGINAL_ATTRIBUTE_GROUPS}
    for s in SYMPTOMS:
        out[s.attribute].append(s)
    return out


def new_attribute_names() -> list[str]:
    """The 60 symptom attributes of the new WAP, in stable order."""
    return [s.name for s in SYMPTOMS]


def original_attribute_names() -> list[str]:
    """The 15 feature attributes of the original WAP, in stable order."""
    return list(ORIGINAL_ATTRIBUTE_GROUPS)
