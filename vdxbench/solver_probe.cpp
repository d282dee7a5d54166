// Link-time timing decorator around vdx::solver::solve.
//
// broker::optimize overwrites SolveOptions::obs with its own observer, and
// the streaming path hands it none, so the solver's own solver.solve span
// never fires on stream-1m. The benchmark therefore links with
// -Wl,--wrap=<solve>: every call into the solver from another library lands
// here first and is timed as a bench-side solver.solve span on
// `solver_tracer` when one is set. The wrapper forwards the call unchanged.
// The __real_ reference is weak so that a renamed solve() still links (the
// self-test then reports solver.calls == 0 on stream-1m). A weak reference
// does not pull solve()'s archive member into the link, so a strong one to
// a neighbour in the same source file does.
#include "bench.hpp"
#include "solver/solver.hpp"

namespace vdxbench {
vdx::obs::SpanTracer* solver_tracer = nullptr;
}  // namespace vdxbench

namespace {
__attribute__((used)) std::string_view (*const pull_solver_member)(
    vdx::solver::Backend) noexcept = &vdx::solver::to_string;
}  // namespace

extern "C" {

__attribute__((weak)) vdx::solver::Assignment
__real__ZN3vdx6solver5solveERKNS0_17AssignmentProblemERKNS0_12SolveOptionsE(
    const vdx::solver::AssignmentProblem& problem,
    const vdx::solver::SolveOptions& options);

vdx::solver::Assignment
__wrap__ZN3vdx6solver5solveERKNS0_17AssignmentProblemERKNS0_12SolveOptionsE(
    const vdx::solver::AssignmentProblem& problem,
    const vdx::solver::SolveOptions& options) {
  const vdxbench::BenchSpan span{vdxbench::solver_tracer, "solver.solve"};
  return __real__ZN3vdx6solver5solveERKNS0_17AssignmentProblemERKNS0_12SolveOptionsE(
      problem, options);
}

}  // extern "C"
