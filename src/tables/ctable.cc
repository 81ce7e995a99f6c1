#include "tables/ctable.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "condition/interner.h"
#include "core/instance.h"
#include "core/symbol_table.h"

namespace pw {

std::string ToString(TableKind kind) {
  switch (kind) {
    case TableKind::kCoddTable:
      return "Codd-table";
    case TableKind::kETable:
      return "e-table";
    case TableKind::kITable:
      return "i-table";
    case TableKind::kGTable:
      return "g-table";
    case TableKind::kCTable:
      return "c-table";
  }
  return "?";
}

CTable::CTable(const CTable& other)
    : arity_(other.arity_),
      rows_(other.rows_),
      global_(other.global_),
      global_id_(other.global_id_),
      global_stamp_(other.global_stamp_) {}  // copies thaw: frozen_ stays false

CTable& CTable::operator=(const CTable& other) {
  if (this == &other) return *this;
  arity_ = other.arity_;
  rows_ = other.rows_;
  global_ = other.global_;
  global_id_ = other.global_id_;
  global_stamp_ = other.global_stamp_;
  indexes_.reset();  // rebuilt lazily against the new rows
  frozen_ = false;
  return *this;
}

void CTable::PrepareForSharing(ConditionInterner& interner) {
  if (frozen_) return;
  GlobalId(interner);
  for (CRow& row : rows_) row.Pin(interner);
  if (indexes_ == nullptr) indexes_ = std::make_unique<IndexState>();
  frozen_ = true;
}

void CTable::AddRow(Tuple tuple) {
  assert(!frozen_ && "mutating a table frozen for sharing");
  assert(static_cast<int>(tuple.size()) == arity_);
  rows_.push_back(CRow(std::move(tuple)));
}

void CTable::AddRow(Tuple tuple, Conjunction local) {
  assert(!frozen_ && "mutating a table frozen for sharing");
  assert(static_cast<int>(tuple.size()) == arity_);
  rows_.push_back(CRow(std::move(tuple), std::move(local)));
}

void CTable::AddRow(Tuple tuple, ConjId local, ConditionInterner& interner) {
  assert(!frozen_ && "mutating a table frozen for sharing");
  assert(static_cast<int>(tuple.size()) == arity_);
  rows_.push_back(CRow(std::move(tuple), local, interner));
}

void CTable::AddRow(CRow row) {
  assert(!frozen_ && "mutating a table frozen for sharing");
  assert(static_cast<int>(row.tuple.size()) == arity_);
  rows_.push_back(std::move(row));
}

void CTable::ReplaceRows(std::vector<CRow> rows) {
  assert(!frozen_ && "mutating a table frozen for sharing");
#ifndef NDEBUG
  for (const CRow& row : rows) {
    assert(static_cast<int>(row.tuple.size()) == arity_);
  }
#endif
  rows_ = std::move(rows);
  if (indexes_ != nullptr) indexes_->cache.Clear();  // rebuilt on next use
}

std::vector<CRow> CTable::TakeRows() {
  assert(!frozen_ && "mutating a table frozen for sharing");
  if (indexes_ != nullptr) indexes_->cache.Clear();  // rows are leaving
  return std::exchange(rows_, {});
}

const TupleIndex& CTable::Index(const std::vector<int>& columns,
                                bool* built, bool* extended) const {
  // The lazy allocation is single-threaded territory (concurrent readers
  // only see tables that went through PrepareForSharing, which allocates
  // eagerly); the cache itself is guarded so concurrent readers can demand
  // different column sets safely.
  if (indexes_ == nullptr) indexes_ = std::make_unique<IndexState>();
  std::lock_guard<std::mutex> lock(indexes_->mutex);
  TupleIndexCache& cache = indexes_->cache;
  size_t builds_before = cache.stats().builds;
  size_t extends_before = cache.stats().extends;
  const TupleIndex& index = cache.Get(
      columns, rows_.size(),
      [this](size_t i) -> const Tuple& { return rows_[i].tuple; });
  if (built != nullptr) *built = cache.stats().builds != builds_before;
  if (extended != nullptr) {
    *extended = cache.stats().extends != extends_before;
  }
  return index;
}

CTable CTable::FromRelation(const Relation& relation) {
  CTable out(relation.arity());
  for (const Fact& f : relation) out.AddRow(ToTuple(f));
  return out;
}

namespace {

/// Appends the variables of the rows' tuples to `out`, with repeats.
void AppendTupleVariables(const std::vector<CRow>& rows,
                          std::vector<VarId>& out) {
  for (const CRow& row : rows) {
    for (const Term& t : row.tuple) {
      if (t.is_variable()) out.push_back(t.variable());
    }
  }
}

/// True iff `vars` holds some id twice; sorts it.
bool HasRepeat(std::vector<VarId>& vars) {
  size_t n = vars.size();
  SortUnique(vars);
  return vars.size() != n;
}

}  // namespace

TableKind CTable::Kind() const {
  bool has_local = false;
  for (const CRow& row : rows_) {
    if (!row.local().IsTautology()) {
      has_local = true;
      break;
    }
  }
  if (has_local) return TableKind::kCTable;

  bool has_eq = false;
  bool has_neq = false;
  for (const CondAtom& a : global_.atoms()) {
    if (IsTriviallyTrue(a)) continue;
    (a.is_equality ? has_eq : has_neq) = true;
  }
  if (has_eq) return TableKind::kGTable;

  std::vector<VarId> vars;
  AppendTupleVariables(rows_, vars);
  bool repeats = HasRepeat(vars);
  if (has_neq) return repeats ? TableKind::kGTable : TableKind::kITable;
  return repeats ? TableKind::kETable : TableKind::kCoddTable;
}

std::vector<VarId> CTable::Variables() const {
  std::vector<VarId> out = global_.Variables();
  AppendTupleVariables(rows_, out);
  for (const CRow& row : rows_) {
    std::vector<VarId> local = row.local().Variables();
    out.insert(out.end(), local.begin(), local.end());
  }
  SortUnique(out);
  return out;
}

std::vector<ConstId> CTable::Constants() const {
  std::vector<ConstId> out = global_.Constants();
  for (const CRow& row : rows_) {
    for (const Term& t : row.tuple) {
      if (t.is_constant()) out.push_back(t.constant());
    }
    std::vector<ConstId> local = row.local().Constants();
    out.insert(out.end(), local.begin(), local.end());
  }
  SortUnique(out);
  return out;
}

bool CTable::IsGround() const { return Variables().empty(); }

CTable CTable::Substitute(
    const std::unordered_map<VarId, Term>& substitution) const {
  auto apply = [&substitution](Term t) {
    if (t.is_variable()) {
      auto it = substitution.find(t.variable());
      if (it != substitution.end()) return it->second;
    }
    return t;
  };
  CTable out(arity_);
  for (const CRow& row : rows_) {
    Tuple tuple;
    tuple.reserve(row.tuple.size());
    for (const Term& t : row.tuple) tuple.push_back(apply(t));
    out.AddRow(std::move(tuple), row.local().Substitute(substitution));
  }
  out.SetGlobal(global_.Substitute(substitution));
  return out;
}

CTable CTable::Normalized() const {
  if (!ConditionInterner::Global().Satisfiable(
          GlobalId(ConditionInterner::Global()))) {
    CTable out(arity_);
    out.SetGlobal(Conjunction{FalseAtom()});
    return out;
  }
  CTable out = Substitute(global_.CanonicalSubstitution());
  Conjunction global = out.global().Simplified();
  out.SetGlobal(std::move(global));
  std::vector<CRow> rows;
  for (CRow& row : out.rows_) {
    rows.push_back(CRow(std::move(row.tuple), row.local().Simplified()));
  }
  out.ReplaceRows(std::move(rows));
  return out;
}

CTable CTable::Minimized() const {
  ConditionInterner& interner = ConditionInterner::Global();
  CTable normalized = Normalized();
  ConjId global_id = normalized.GlobalId(interner);
  if (!interner.Satisfiable(global_id)) return normalized;

  // Drop local atoms implied by the global condition; drop rows whose local
  // condition is inconsistent with it. The global's interned id is memoized
  // on the table, so each distinct local costs one memoized And.
  std::vector<CRow> kept;
  for (const CRow& row : normalized.rows()) {
    if (!interner.Satisfiable(
            interner.And(global_id, row.LocalId(interner)))) {
      continue;
    }
    Conjunction simplified = row.local().Simplified();
    Conjunction local;
    for (const CondAtom& atom : simplified.atoms()) {
      if (!normalized.global().Implies(atom)) local.Add(atom);
    }
    kept.push_back(CRow(row.tuple, std::move(local)));
  }

  // Row subsumption: (t, phi) is redundant if another kept row (t, psi) has
  // global AND phi implies psi (the subsumer is "on" whenever the subsumed
  // is) — a memoized pairwise implication between interned ids.
  std::vector<bool> dead(kept.size(), false);
  for (size_t i = 0; i < kept.size(); ++i) {
    if (dead[i]) continue;
    ConjId phi_i = interner.And(global_id, kept[i].LocalId(interner));
    for (size_t j = 0; j < kept.size(); ++j) {
      if (i == j || dead[j] || kept[i].tuple != kept[j].tuple) continue;
      // Tie-break identical rows by index to keep exactly one.
      if (interner.Implies(phi_i, kept[j].LocalId(interner)) &&
          (kept[i].local() != kept[j].local() || j < i)) {
        dead[i] = true;
        break;
      }
    }
  }

  CTable out(arity());
  out.SetGlobal(normalized.global());
  for (size_t i = 0; i < kept.size(); ++i) {
    if (!dead[i]) out.AddRow(kept[i].tuple, kept[i].local());
  }
  return out;
}

std::string CTable::ToString(const SymbolTable* symbols) const {
  std::string out;
  if (!global_.IsTautology()) {
    out += "[ " + global_.ToString(symbols) + " ]\n";
  }
  for (const CRow& row : rows_) {
    out += pw::ToString(row.tuple, symbols);
    if (!row.local().IsTautology()) {
      out += "  :: " + row.local().ToString(symbols);
    }
    out += "\n";
  }
  return out;
}

CDatabase::CDatabase(std::vector<CTable> tables) {
  tables_.reserve(tables.size());
  for (CTable& t : tables) AddTable(std::move(t));
}

CTable& CDatabase::mutable_table(size_t i) {
  if (tables_[i].use_count() > 1 || tables_[i]->frozen()) {
    tables_[i] = std::make_shared<CTable>(*tables_[i]);
  }
  return *tables_[i];
}

size_t CDatabase::AddTable(CTable table) {
  tables_.push_back(std::make_shared<CTable>(std::move(table)));
  return tables_.size() - 1;
}

size_t CDatabase::AddSharedTable(const CDatabase& other, size_t i) {
  tables_.push_back(other.tables_[i]);
  return tables_.size() - 1;
}

void CDatabase::PrepareForSharing(ConditionInterner& interner) {
  for (auto& t : tables_) t->PrepareForSharing(interner);
}

Conjunction CDatabase::CombinedGlobal() const {
  Conjunction out;
  for (const auto& t : tables_) out.AddAll(t->global());
  return out;
}

ConjId CDatabase::CombinedGlobalId(ConditionInterner& interner) const {
  ConjId out = ConditionInterner::kTrueConj;
  for (const auto& t : tables_) {
    out = interner.And(out, t->GlobalId(interner));
  }
  return out;
}

std::vector<VarId> CDatabase::Variables() const {
  std::vector<VarId> out;
  for (const auto& t : tables_) {
    std::vector<VarId> vars = t->Variables();
    out.insert(out.end(), vars.begin(), vars.end());
  }
  SortUnique(out);
  return out;
}

std::vector<ConstId> CDatabase::Constants() const {
  std::vector<ConstId> out;
  for (const auto& t : tables_) {
    std::vector<ConstId> constants = t->Constants();
    out.insert(out.end(), constants.begin(), constants.end());
  }
  SortUnique(out);
  return out;
}

bool CDatabase::HasLocalConditions() const {
  for (const auto& t : tables_) {
    for (const CRow& row : t->rows()) {
      if (!row.local().IsTautology()) return true;
    }
  }
  return false;
}

std::vector<int> CDatabase::Arities() const {
  std::vector<int> out;
  out.reserve(tables_.size());
  for (const auto& t : tables_) out.push_back(t->arity());
  return out;
}

TableKind CDatabase::Kind() const {
  TableKind worst = TableKind::kCoddTable;
  for (const auto& t : tables_) worst = std::max(worst, t->Kind());
  if (worst < TableKind::kETable && tables_.size() > 1) {
    // A variable shared between tuples of two member tables acts like an
    // incorporated equality, so the database is at least an e-table database.
    // Every member is a Codd-table here, so a repeat among all the tuples'
    // variables is such a shared variable.
    std::vector<VarId> vars;
    for (const auto& t : tables_) AppendTupleVariables(t->rows(), vars);
    if (HasRepeat(vars)) worst = TableKind::kETable;
  }
  return worst;
}

CDatabase CDatabase::FromInstance(const Instance& instance) {
  CDatabase out;
  for (size_t i = 0; i < instance.num_relations(); ++i) {
    out.AddTable(CTable::FromRelation(instance.relation(i)));
  }
  return out;
}

std::string CDatabase::ToString(const SymbolTable* symbols) const {
  std::string out;
  for (size_t i = 0; i < tables_.size(); ++i) {
    out += "T" + std::to_string(i) + " (arity " +
           std::to_string(tables_[i]->arity()) + "):\n";
    out += tables_[i]->ToString(symbols);
  }
  return out;
}

}  // namespace pw
