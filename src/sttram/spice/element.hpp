// Element interface and MNA stamping helpers.
//
// Conventions (documented once, used everywhere):
//  * KCL rows are written as "sum of currents LEAVING the node through
//    elements = 0"; a current source injecting I INTO node n therefore
//    adds +I to the right-hand side of row n.
//  * A voltage-source branch current is positive when it flows from the
//    positive terminal through the source to the negative terminal
//    (i.e. the source *absorbs* positive current at its + terminal; a
//    battery driving a load reports a negative branch current).
#pragma once

#include <string>
#include <vector>

#include "sttram/spice/matrix.hpp"

namespace sttram::spice {

/// Node identifier; kGround is the reference node and is never stamped.
using NodeId = int;
inline constexpr NodeId kGround = -1;

/// Time-integration method for dynamic elements.
enum class Integrator {
  kBackwardEuler,  ///< L-stable, first order; robust default
  kTrapezoidal,    ///< A-stable, second order; better accuracy per step
};

/// View of the solver state an element stamps against.
struct StampContext {
  double time = 0.0;  ///< current simulation time [s]
  double dt = 0.0;    ///< time step [s]; 0 during DC analysis
  bool transient = false;
  Integrator integrator = Integrator::kBackwardEuler;
  /// Current Newton iterate (node voltages then branch currents).
  const std::vector<double>* x = nullptr;
  /// Converged solution of the previous time point (transient only).
  const std::vector<double>* x_prev = nullptr;

  /// Voltage of a node in the current iterate (0 for ground).
  [[nodiscard]] double v(NodeId n) const {
    return n == kGround ? 0.0 : (*x)[static_cast<std::size_t>(n)];
  }
  /// Voltage at the previous time point.
  [[nodiscard]] double v_prev(NodeId n) const {
    return n == kGround ? 0.0 : (*x_prev)[static_cast<std::size_t>(n)];
  }
};

/// Accumulates element stamps into the MNA matrix and RHS.  Inline:
/// every element's stamp, in every Newton iteration, writes through
/// these.
class MnaStamper {
 public:
  MnaStamper(Matrix& a, std::vector<double>& b, std::size_t node_count)
      : a_(a), b_(b), nodes_(node_count) {}

  /// Conductance g between nodes p and n.
  void conductance(NodeId p, NodeId n, double g) {
    if (p != kGround) a_(index(p), index(p)) += g;
    if (n != kGround) a_(index(n), index(n)) += g;
    if (p != kGround && n != kGround) {
      a_(index(p), index(n)) -= g;
      a_(index(n), index(p)) -= g;
    }
  }

  /// Independent current I injected INTO node n.
  void current_into(NodeId n, double i) {
    if (n != kGround) b_[index(n)] += i;
  }

  /// Voltage-source stamp: branch `branch` (0-based among branches)
  /// enforces v(p) - v(n) = value.
  void voltage_source(int branch, NodeId p, NodeId n, double value) {
    const std::size_t br = nodes_ + static_cast<std::size_t>(branch);
    if (p != kGround) {
      a_(index(p), br) += 1.0;
      a_(br, index(p)) += 1.0;
    }
    if (n != kGround) {
      a_(index(n), br) -= 1.0;
      a_(br, index(n)) -= 1.0;
    }
    b_[br] += value;
  }

  /// Voltage-controlled current source: current gm * (v(cp) - v(cn))
  /// flows from op through the source to on.
  void vccs(NodeId op, NodeId on, NodeId cp, NodeId cn, double gm) {
    add(op, cp, gm);
    add(op, cn, -gm);
    add(on, cp, -gm);
    add(on, cn, gm);
  }

 private:
  static std::size_t index(NodeId n) { return static_cast<std::size_t>(n); }
  void add(NodeId row, NodeId col, double val) {
    if (row != kGround && col != kGround) a_(index(row), index(col)) += val;
  }
  Matrix& a_;
  std::vector<double>& b_;
  std::size_t nodes_;
};

/// Base class of all circuit elements.
class Element {
 public:
  explicit Element(std::string name) : name_(std::move(name)) {}
  virtual ~Element() = default;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Writes the element's (possibly linearized) companion model into the
  /// MNA system for the given context.
  virtual void stamp(MnaStamper& mna, const StampContext& ctx) const = 0;

  /// Number of extra MNA unknowns (source branch currents) this element
  /// needs.
  [[nodiscard]] virtual int branch_count() const { return 0; }

  /// True when the stamp depends on the current iterate (forces Newton
  /// iteration instead of a single linear solve).
  [[nodiscard]] virtual bool is_nonlinear() const { return false; }

  /// Called once per *accepted* transient step with the converged
  /// solution in ctx.x; dynamic elements update their history terms
  /// (e.g. the trapezoidal companion's previous branch current) here.
  virtual void commit_step(const StampContext& ctx) { (void)ctx; }

  /// Time points where the element's behavior is discontinuous (source
  /// waveform corners, switch events).  The adaptive transient engine
  /// never steps across a breakpoint.
  [[nodiscard]] virtual std::vector<double> breakpoints() const {
    return {};
  }

  /// First branch index assigned by Circuit::finalize() (-1 if none).
  [[nodiscard]] int branch_base() const { return branch_base_; }
  void set_branch_base(int base) { branch_base_ = base; }

 private:
  std::string name_;
  int branch_base_ = -1;
};

}  // namespace sttram::spice
