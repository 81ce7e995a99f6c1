// Bottom-up DATALOG evaluation: naive and semi-naive fixpoint.

#ifndef PW_DATALOG_EVAL_H_
#define PW_DATALOG_EVAL_H_

#include "core/instance.h"
#include "datalog/program.h"

namespace pw {

/// Computes the least fixpoint of `program` over `edb`. The input instance
/// supplies the extensional relations [0, num_edb); one it lacks, or has
/// with another arity than the program's, reads as empty, and a rule that
/// does not fit the program (DatalogProgram::Fits) derives nothing. The
/// result holds all predicates — extensional relations copied through,
/// intensional relations populated.
///
/// Naive evaluation: re-derives everything each round. Reference
/// implementation for testing the semi-naive one.
Instance NaiveEval(const DatalogProgram& program, const Instance& edb);

/// Semi-naive evaluation: each round joins at least one delta-atom. Same
/// result as NaiveEval, asymptotically fewer re-derivations.
Instance SemiNaiveEval(const DatalogProgram& program, const Instance& edb);

}  // namespace pw

#endif  // PW_DATALOG_EVAL_H_
