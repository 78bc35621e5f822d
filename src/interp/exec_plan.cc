#include "interp/exec_plan.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <map>

namespace lpo::interp {

using ir::FCmpPred;
using ir::ICmpPred;
using ir::Instruction;
using ir::Intrinsic;
using ir::Opcode;
using ir::Type;
using ir::Value;

namespace {

unsigned
laneCount(const Type *type)
{
    return type->isVector() ? type->lanes() : 1;
}

// ---------------------------------------------------------------------
// Lane evaluators: the LangRef rules listed in interp.h. Their
// results over the corpus are pinned in test_exec_plan.cc.
// ---------------------------------------------------------------------

LaneValue
evalIntBinary(const ExecPlan::PlanInst &inst, const LaneValue &a,
              const LaneValue &b)
{
    const ir::InstFlags &flags = inst.flags;
    if (a.poison || b.poison)
        return LaneValue::ofPoison();

    const APInt &x = a.bits;
    const APInt &y = b.bits;
    unsigned width = x.width();

    switch (inst.op) {
      case Opcode::Add:
        if ((flags.nuw && x.addOverflowsUnsigned(y)) ||
            (flags.nsw && x.addOverflowsSigned(y)))
            return LaneValue::ofPoison();
        return LaneValue::ofInt(x.add(y));
      case Opcode::Sub:
        if ((flags.nuw && x.subOverflowsUnsigned(y)) ||
            (flags.nsw && x.subOverflowsSigned(y)))
            return LaneValue::ofPoison();
        return LaneValue::ofInt(x.sub(y));
      case Opcode::Mul:
        if ((flags.nuw && x.mulOverflowsUnsigned(y)) ||
            (flags.nsw && x.mulOverflowsSigned(y)))
            return LaneValue::ofPoison();
        return LaneValue::ofInt(x.mul(y));
      case Opcode::UDiv:
        if (flags.exact && !x.urem(y).isZero())
            return LaneValue::ofPoison();
        return LaneValue::ofInt(x.udiv(y));
      case Opcode::SDiv:
        if (flags.exact && !x.srem(y).isZero())
            return LaneValue::ofPoison();
        return LaneValue::ofInt(x.sdiv(y));
      case Opcode::URem:
        return LaneValue::ofInt(x.urem(y));
      case Opcode::SRem:
        return LaneValue::ofInt(x.srem(y));
      case Opcode::Shl: {
        if (y.zext() >= width)
            return LaneValue::ofPoison();
        unsigned amount = static_cast<unsigned>(y.zext());
        if ((flags.nuw && x.shlOverflowsUnsigned(amount)) ||
            (flags.nsw && x.shlOverflowsSigned(amount)))
            return LaneValue::ofPoison();
        return LaneValue::ofInt(x.shl(amount));
      }
      case Opcode::LShr: {
        if (y.zext() >= width)
            return LaneValue::ofPoison();
        unsigned amount = static_cast<unsigned>(y.zext());
        if (flags.exact && x.lshr(amount).shl(amount).zext() != x.zext())
            return LaneValue::ofPoison();
        return LaneValue::ofInt(x.lshr(amount));
      }
      case Opcode::AShr: {
        if (y.zext() >= width)
            return LaneValue::ofPoison();
        unsigned amount = static_cast<unsigned>(y.zext());
        if (flags.exact && x.ashr(amount).shl(amount).zext() != x.zext())
            return LaneValue::ofPoison();
        return LaneValue::ofInt(x.ashr(amount));
      }
      case Opcode::And:
        return LaneValue::ofInt(x.andOp(y));
      case Opcode::Or:
        if (flags.disjoint && !x.andOp(y).isZero())
            return LaneValue::ofPoison();
        return LaneValue::ofInt(x.orOp(y));
      case Opcode::Xor:
        return LaneValue::ofInt(x.xorOp(y));
      default:
        assert(false && "not an integer binary op");
        return LaneValue::ofPoison();
    }
}

LaneValue
evalFPBinary(Opcode op, const LaneValue &a, const LaneValue &b)
{
    if (a.poison || b.poison)
        return LaneValue::ofPoison();
    switch (op) {
      case Opcode::FAdd: return LaneValue::ofFP(a.fp + b.fp);
      case Opcode::FSub: return LaneValue::ofFP(a.fp - b.fp);
      case Opcode::FMul: return LaneValue::ofFP(a.fp * b.fp);
      case Opcode::FDiv: return LaneValue::ofFP(a.fp / b.fp);
      default:
        assert(false);
        return LaneValue::ofPoison();
    }
}

LaneValue
evalICmpLane(ICmpPred pred, const LaneValue &a, const LaneValue &b)
{
    if (a.poison || b.poison)
        return LaneValue::ofPoison();
    const APInt &x = a.bits;
    const APInt &y = b.bits;
    bool r = false;
    switch (pred) {
      case ICmpPred::EQ: r = x.eq(y); break;
      case ICmpPred::NE: r = x.ne(y); break;
      case ICmpPred::UGT: r = x.ugt(y); break;
      case ICmpPred::UGE: r = x.uge(y); break;
      case ICmpPred::ULT: r = x.ult(y); break;
      case ICmpPred::ULE: r = x.ule(y); break;
      case ICmpPred::SGT: r = x.sgt(y); break;
      case ICmpPred::SGE: r = x.sge(y); break;
      case ICmpPred::SLT: r = x.slt(y); break;
      case ICmpPred::SLE: r = x.sle(y); break;
    }
    return LaneValue::ofInt(APInt(1, r));
}

LaneValue
evalFCmpLane(FCmpPred pred, const LaneValue &a, const LaneValue &b)
{
    if (a.poison || b.poison)
        return LaneValue::ofPoison();
    double x = a.fp;
    double y = b.fp;
    bool unordered = std::isnan(x) || std::isnan(y);
    bool r = false;
    switch (pred) {
      case FCmpPred::False: r = false; break;
      case FCmpPred::OEQ: r = !unordered && x == y; break;
      case FCmpPred::OGT: r = !unordered && x > y; break;
      case FCmpPred::OGE: r = !unordered && x >= y; break;
      case FCmpPred::OLT: r = !unordered && x < y; break;
      case FCmpPred::OLE: r = !unordered && x <= y; break;
      case FCmpPred::ONE: r = !unordered && x != y; break;
      case FCmpPred::ORD: r = !unordered; break;
      case FCmpPred::UEQ: r = unordered || x == y; break;
      case FCmpPred::UGT: r = unordered || x > y; break;
      case FCmpPred::UGE: r = unordered || x >= y; break;
      case FCmpPred::ULT: r = unordered || x < y; break;
      case FCmpPred::ULE: r = unordered || x <= y; break;
      case FCmpPred::UNE: r = unordered || x != y; break;
      case FCmpPred::UNO: r = unordered; break;
      case FCmpPred::True: r = true; break;
    }
    return LaneValue::ofInt(APInt(1, r));
}

LaneValue
evalCastLane(const ExecPlan::PlanInst &inst, const LaneValue &a)
{
    if (a.poison)
        return LaneValue::ofPoison();
    unsigned dst = inst.cast_width;
    const ir::InstFlags &flags = inst.flags;
    switch (inst.op) {
      case Opcode::Trunc: {
        APInt t = a.bits.truncTo(dst);
        if (flags.nuw && t.zextTo(a.bits.width()).zext() != a.bits.zext())
            return LaneValue::ofPoison();
        if (flags.nsw && t.sextTo(a.bits.width()).zext() != a.bits.zext())
            return LaneValue::ofPoison();
        return LaneValue::ofInt(t);
      }
      case Opcode::ZExt:
        if (flags.nneg && a.bits.isSignBitSet())
            return LaneValue::ofPoison();
        return LaneValue::ofInt(a.bits.zextTo(dst));
      case Opcode::SExt:
        return LaneValue::ofInt(a.bits.sextTo(dst));
      default:
        assert(false);
        return LaneValue::ofPoison();
    }
}

LaneValue
evalIntrinsicLane(Intrinsic intr, const LaneValue *args)
{
    if (intr == Intrinsic::FAbs) {
        if (args[0].poison)
            return LaneValue::ofPoison();
        return LaneValue::ofFP(std::fabs(args[0].fp));
    }
    if (args[0].poison)
        return LaneValue::ofPoison();
    const APInt &x = args[0].bits;
    unsigned w = x.width();
    switch (intr) {
      case Intrinsic::UMin:
      case Intrinsic::UMax:
      case Intrinsic::SMin:
      case Intrinsic::SMax: {
        if (args[1].poison)
            return LaneValue::ofPoison();
        const APInt &y = args[1].bits;
        switch (intr) {
          case Intrinsic::UMin: return LaneValue::ofInt(x.umin(y));
          case Intrinsic::UMax: return LaneValue::ofInt(x.umax(y));
          case Intrinsic::SMin: return LaneValue::ofInt(x.smin(y));
          default: return LaneValue::ofInt(x.smax(y));
        }
      }
      case Intrinsic::Abs: {
        bool min_poison = !args[1].bits.isZero();
        if (x.isSignedMin())
            return min_poison ? LaneValue::ofPoison() : LaneValue::ofInt(x);
        return LaneValue::ofInt(x.isSignBitSet() ? x.neg() : x);
      }
      case Intrinsic::CtPop:
        return LaneValue::ofInt(APInt(w, x.popCount()));
      case Intrinsic::CtLz: {
        bool zero_poison = !args[1].bits.isZero();
        if (x.isZero() && zero_poison)
            return LaneValue::ofPoison();
        return LaneValue::ofInt(APInt(w, x.countLeadingZeros()));
      }
      case Intrinsic::CtTz: {
        bool zero_poison = !args[1].bits.isZero();
        if (x.isZero() && zero_poison)
            return LaneValue::ofPoison();
        return LaneValue::ofInt(APInt(w, x.countTrailingZeros()));
      }
      case Intrinsic::USubSat: {
        if (args[1].poison)
            return LaneValue::ofPoison();
        const APInt &y = args[1].bits;
        return LaneValue::ofInt(x.ult(y) ? APInt::zero(w) : x.sub(y));
      }
      case Intrinsic::UAddSat: {
        if (args[1].poison)
            return LaneValue::ofPoison();
        const APInt &y = args[1].bits;
        return LaneValue::ofInt(
            x.addOverflowsUnsigned(y) ? APInt::allOnes(w) : x.add(y));
      }
      case Intrinsic::SSubSat: {
        if (args[1].poison)
            return LaneValue::ofPoison();
        const APInt &y = args[1].bits;
        if (x.subOverflowsSigned(y))
            return LaneValue::ofInt(x.sge(y) ? APInt::signedMax(w)
                                             : APInt::signedMin(w));
        return LaneValue::ofInt(x.sub(y));
      }
      case Intrinsic::SAddSat: {
        if (args[1].poison)
            return LaneValue::ofPoison();
        const APInt &y = args[1].bits;
        if (x.addOverflowsSigned(y))
            return LaneValue::ofInt(x.isSignBitSet() ? APInt::signedMin(w)
                                                     : APInt::signedMax(w));
        return LaneValue::ofInt(x.add(y));
      }
      default:
        assert(false && "unhandled intrinsic");
        return LaneValue::ofPoison();
    }
}

/** Compile-time evaluation of a scalar constant into one lane. */
LaneValue
evalScalarConstant(const Value *v)
{
    switch (v->kind()) {
      case Value::Kind::ConstInt:
        return LaneValue::ofInt(
            static_cast<const ir::ConstantInt *>(v)->value());
      case Value::Kind::ConstFP:
        return LaneValue::ofFP(
            static_cast<const ir::ConstantFP *>(v)->value());
      case Value::Kind::Poison:
        return LaneValue::ofPoison();
      default:
        assert(false && "not a scalar constant");
        return LaneValue::ofPoison();
    }
}

} // namespace

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

ExecPlan
ExecPlan::compile(const ir::Function &fn, unsigned step_limit)
{
    ExecPlan plan;
    plan.step_limit_ = step_limit;
    plan.num_args_ = fn.numArgs();

    std::map<const Value *, uint32_t> slot_of;
    uint32_t next_lane = 0;

    auto addSlot = [&](uint32_t lanes) -> uint32_t {
        uint32_t id = static_cast<uint32_t>(plan.slots_.size());
        plan.slots_.push_back(SlotInfo{next_lane, lanes});
        plan.init_lanes_.resize(next_lane + lanes);
        next_lane += lanes;
        return id;
    };

    // Arguments occupy the first slots, in declaration order; their
    // flattened lane layout doubles as the exhaustive-decode program.
    for (unsigned i = 0; i < fn.numArgs(); ++i) {
        const ir::Argument *arg = fn.arg(i);
        const Type *type = arg->type();
        uint32_t lanes = laneCount(type);
        uint32_t id = addSlot(lanes);
        slot_of[arg] = id;
        plan.arg_slots_.push_back(plan.slots_[id]);
        if (type->isPtr() || type->scalarType()->isFloat()) {
            plan.exhaustive_ok_ = false;
            continue;
        }
        unsigned width = type->scalarType()->intWidth();
        for (uint32_t lane = 0; lane < lanes; ++lane)
            plan.arg_lanes_.push_back(
                ArgLane{plan.slots_[id].offset + lane,
                        static_cast<uint8_t>(width)});
        plan.input_bits_ += lanes * width;
    }

    // Every instruction result gets its slot up front so operands can
    // reference values defined later in the block (phi back-edges).
    for (const auto &bb : fn.blocks()) {
        for (const auto &inst_ptr : bb->instructions()) {
            const Instruction *inst = inst_ptr.get();
            if (inst->op() == Opcode::Ret || inst->op() == Opcode::Br)
                continue;
            uint32_t lanes = inst->op() == Opcode::Store
                                 ? 0
                                 : laneCount(inst->type());
            slot_of[inst] = addSlot(lanes);
        }
    }

    // Constants get slots on first use, with their value baked into
    // the arena image.
    auto slotFor = [&](const Value *v) -> uint32_t {
        auto it = slot_of.find(v);
        if (it != slot_of.end())
            return it->second;
        assert(v->isConstant() && "operand evaluated before definition");
        uint32_t lanes = laneCount(v->type());
        uint32_t id = addSlot(lanes);
        LaneValue *base = plan.init_lanes_.data() + plan.slots_[id].offset;
        if (v->kind() == Value::Kind::ConstVector) {
            const auto *cv = static_cast<const ir::ConstantVector *>(v);
            for (uint32_t lane = 0; lane < lanes; ++lane)
                base[lane] = evalScalarConstant(cv->elements()[lane]);
        } else if (v->kind() == Value::Kind::Poison) {
            for (uint32_t lane = 0; lane < lanes; ++lane)
                base[lane] = LaneValue::ofPoison();
        } else {
            base[0] = evalScalarConstant(v);
        }
        slot_of[v] = id;
        return id;
    };

    // Block labels resolve to dense indices.
    std::map<std::string, uint32_t> block_index;
    for (size_t b = 0; b < fn.blocks().size(); ++b)
        block_index[fn.blocks()[b]->label()] = static_cast<uint32_t>(b);

    for (const auto &bb : fn.blocks()) {
        BlockRange range;
        range.begin = static_cast<uint32_t>(plan.insts_.size());
        for (const auto &inst_ptr : bb->instructions()) {
            const Instruction *inst = inst_ptr.get();
            PlanInst pi;
            pi.op = inst->op();
            pi.flags = inst->flags();
            pi.icmp_pred = inst->icmpPred();
            pi.fcmp_pred = inst->fcmpPred();
            pi.intrinsic = inst->intrinsic();
            pi.num_operands =
                static_cast<uint8_t>(inst->numOperands());
            // Phis carry unboundedly many incoming values; they are
            // decoded into phi_incoming below and never read the
            // fixed-size operand arrays.
            if (inst->op() != Opcode::Phi) {
                assert(inst->numOperands() <= 3 &&
                       "unexpected operand count");
                for (unsigned i = 0; i < inst->numOperands(); ++i) {
                    uint32_t slot = slotFor(inst->operand(i));
                    pi.op_off[i] = plan.slots_[slot].offset;
                    pi.op_lanes[i] = plan.slots_[slot].lanes;
                }
            }

            switch (inst->op()) {
              case Opcode::Ret:
              case Opcode::Br:
                break; // no result slot
              default: {
                uint32_t id = slot_of.at(inst);
                pi.dest_off = plan.slots_[id].offset;
                pi.dest_lanes = plan.slots_[id].lanes;
              }
            }

            switch (inst->op()) {
              case Opcode::SDiv:
              case Opcode::SRem:
                pi.is_signed_divrem = true;
                break;
              case Opcode::Select:
                pi.scalar_cond = inst->operand(0)->type()->isBool();
                break;
              case Opcode::Trunc:
              case Opcode::ZExt:
              case Opcode::SExt:
                pi.cast_width = static_cast<uint8_t>(
                    inst->type()->scalarType()->intWidth());
                break;
              case Opcode::Freeze: {
                const Type *scalar = inst->type()->scalarType();
                pi.freeze_fill = scalar->isFloat()
                    ? LaneValue::ofFP(0.0)
                    : LaneValue::ofInt(APInt::zero(
                          scalar->isInt() ? scalar->intWidth() : 64));
                break;
              }
              case Opcode::Gep:
                pi.elem_size = inst->accessType()->storeSizeBytes();
                break;
              case Opcode::Load: {
                const Type *scalar = inst->type()->scalarType();
                pi.access_bytes = inst->type()->storeSizeBytes();
                pi.elem_bytes = scalar->storeSizeBytes();
                pi.elem_is_fp = scalar->isFloat();
                pi.elem_width = static_cast<uint8_t>(
                    scalar->isInt() ? scalar->intWidth() : 0);
                plan.touches_memory_ = true;
                break;
              }
              case Opcode::Store: {
                const Type *vt = inst->operand(0)->type();
                pi.access_bytes = vt->storeSizeBytes();
                pi.elem_bytes = vt->scalarType()->storeSizeBytes();
                pi.elem_is_fp = vt->scalarType()->isFloat();
                plan.touches_memory_ = true;
                break;
              }
              case Opcode::Br: {
                const auto &labels = inst->brLabels();
                pi.br_true = block_index.at(labels[0]);
                pi.br_false = labels.size() > 1
                                  ? block_index.at(labels[1])
                                  : pi.br_true;
                break;
              }
              case Opcode::Phi:
                for (unsigned i = 0; i < inst->numOperands(); ++i) {
                    uint32_t slot = slotFor(inst->operand(i));
                    pi.phi_incoming.emplace_back(
                        block_index.at(inst->phiLabels()[i]),
                        plan.slots_[slot].offset);
                }
                break;
              default:
                break;
            }
            plan.insts_.push_back(std::move(pi));
        }
        range.end = static_cast<uint32_t>(plan.insts_.size());
        plan.blocks_.push_back(range);
    }
    return plan;
}

ExecFrame
ExecPlan::makeFrame() const
{
    ExecFrame frame;
    frame.lanes_ = init_lanes_;
    return frame;
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

PlanResult
ExecPlan::exec(ExecFrame &frame) const
{
    LaneValue *L = frame.lanes_.data();
    std::vector<MemoryObject> &memory = frame.memory_;
    PlanResult out;

    auto trap = [&out](const char *reason) -> const PlanResult & {
        out.ub = true;
        out.ub_reason = reason;
        return out;
    };

    uint32_t block = 0;
    uint32_t prev_block = UINT32_MAX;
    uint32_t pc = blocks_.empty() ? 0 : blocks_[0].begin;
    unsigned steps = 0;

    while (true) {
        if (blocks_.empty() || pc == blocks_[block].end)
            return out; // malformed; verifier rejects this earlier
        const PlanInst &inst = insts_[pc];
        if (++steps > step_limit_)
            return trap("step limit exceeded");

        switch (inst.op) {
          case Opcode::Ret:
            if (inst.num_operands == 1) {
                out.has_ret = true;
                out.ret = L + inst.op_off[0];
                out.ret_lanes = inst.op_lanes[0];
            }
            return out;

          case Opcode::Br: {
            uint32_t next;
            if (inst.num_operands == 0) {
                next = inst.br_true;
            } else {
                const LaneValue &cond = L[inst.op_off[0]];
                if (cond.poison)
                    return trap("branch on poison");
                next = cond.bits.isZero() ? inst.br_false : inst.br_true;
            }
            prev_block = block;
            block = next;
            pc = blocks_[block].begin;
            continue;
          }

          case Opcode::Phi: {
            bool matched = false;
            for (const auto &[pred, src_off] : inst.phi_incoming) {
                if (pred == prev_block) {
                    for (uint32_t i = 0; i < inst.dest_lanes; ++i)
                        L[inst.dest_off + i] = L[src_off + i];
                    matched = true;
                    break;
                }
            }
            if (!matched)
                return trap("phi has no entry for predecessor");
            ++pc;
            continue;
          }

          case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
          case Opcode::UDiv: case Opcode::SDiv:
          case Opcode::URem: case Opcode::SRem:
          case Opcode::Shl: case Opcode::LShr: case Opcode::AShr:
          case Opcode::And: case Opcode::Or: case Opcode::Xor: {
            const LaneValue *a = L + inst.op_off[0];
            const LaneValue *b = L + inst.op_off[1];
            if (ir::isIntDivRem(inst.op)) {
                for (uint32_t i = 0; i < inst.op_lanes[1]; ++i) {
                    if (b[i].poison)
                        return trap("division by poison");
                    if (b[i].bits.isZero())
                        return trap("division by zero");
                    if (inst.is_signed_divrem && !a[i].poison &&
                        a[i].bits.isSignedMin() && b[i].bits.isAllOnes())
                        return trap("signed division overflow");
                }
            }
            for (uint32_t i = 0; i < inst.dest_lanes; ++i)
                L[inst.dest_off + i] = evalIntBinary(inst, a[i], b[i]);
            break;
          }

          case Opcode::FAdd: case Opcode::FSub:
          case Opcode::FMul: case Opcode::FDiv: {
            const LaneValue *a = L + inst.op_off[0];
            const LaneValue *b = L + inst.op_off[1];
            for (uint32_t i = 0; i < inst.dest_lanes; ++i)
                L[inst.dest_off + i] = evalFPBinary(inst.op, a[i], b[i]);
            break;
          }

          case Opcode::ICmp: {
            const LaneValue *a = L + inst.op_off[0];
            const LaneValue *b = L + inst.op_off[1];
            for (uint32_t i = 0; i < inst.dest_lanes; ++i)
                L[inst.dest_off + i] =
                    evalICmpLane(inst.icmp_pred, a[i], b[i]);
            break;
          }

          case Opcode::FCmp: {
            const LaneValue *a = L + inst.op_off[0];
            const LaneValue *b = L + inst.op_off[1];
            for (uint32_t i = 0; i < inst.dest_lanes; ++i)
                L[inst.dest_off + i] =
                    evalFCmpLane(inst.fcmp_pred, a[i], b[i]);
            break;
          }

          case Opcode::Select: {
            const LaneValue *cond = L + inst.op_off[0];
            const LaneValue *tval = L + inst.op_off[1];
            const LaneValue *fval = L + inst.op_off[2];
            for (uint32_t i = 0; i < inst.dest_lanes; ++i) {
                const LaneValue &c = inst.scalar_cond ? cond[0] : cond[i];
                if (c.poison)
                    L[inst.dest_off + i] = LaneValue::ofPoison();
                else
                    L[inst.dest_off + i] =
                        c.bits.isZero() ? fval[i] : tval[i];
            }
            break;
          }

          case Opcode::Trunc: case Opcode::ZExt: case Opcode::SExt: {
            const LaneValue *a = L + inst.op_off[0];
            for (uint32_t i = 0; i < inst.dest_lanes; ++i)
                L[inst.dest_off + i] = evalCastLane(inst, a[i]);
            break;
          }

          case Opcode::Freeze: {
            const LaneValue *a = L + inst.op_off[0];
            for (uint32_t i = 0; i < inst.dest_lanes; ++i)
                L[inst.dest_off + i] =
                    a[i].poison ? inst.freeze_fill : a[i];
            break;
          }

          case Opcode::Call: {
            LaneValue lane_args[3];
            for (uint32_t i = 0; i < inst.dest_lanes; ++i) {
                for (unsigned a = 0; a < inst.num_operands; ++a) {
                    // Scalar immargs (abs/ctlz i1 flag) broadcast.
                    lane_args[a] = inst.op_lanes[a] == 1
                                       ? L[inst.op_off[a]]
                                       : L[inst.op_off[a] + i];
                }
                L[inst.dest_off + i] =
                    evalIntrinsicLane(inst.intrinsic, lane_args);
            }
            break;
          }

          case Opcode::Gep: {
            const LaneValue &b = L[inst.op_off[0]];
            const LaneValue &idx = L[inst.op_off[1]];
            if (b.poison || idx.poison) {
                L[inst.dest_off] = LaneValue::ofPoison();
                break;
            }
            // Address arithmetic wraps (two's complement); signed
            // overflow here would be undefined behaviour.
            int64_t offset = static_cast<int64_t>(
                b.bits.zext() + static_cast<uint64_t>(idx.bits.sext()) *
                                    static_cast<uint64_t>(inst.elem_size));
            LaneValue lane = LaneValue::ofPtr(
                b.object_id, static_cast<uint64_t>(offset));
            if (inst.flags.inbounds) {
                int64_t size =
                    b.object_id >= 0 &&
                    b.object_id < static_cast<int>(memory.size())
                        ? static_cast<int64_t>(
                              memory[b.object_id].bytes.size())
                        : 0;
                if (offset < 0 || offset > size)
                    lane = LaneValue::ofPoison();
            }
            L[inst.dest_off] = lane;
            break;
          }

          case Opcode::Load: {
            const LaneValue &p = L[inst.op_off[0]];
            if (p.poison)
                return trap("load from poison pointer");
            if (p.object_id < 0 ||
                p.object_id >= static_cast<int>(memory.size()))
                return trap("load from non-pointer value");
            const std::vector<uint8_t> &bytes =
                memory[p.object_id].bytes;
            uint64_t offset = p.bits.zext();
            if (offset + inst.access_bytes > bytes.size())
                return trap("out-of-bounds load");
            for (uint32_t i = 0; i < inst.dest_lanes; ++i) {
                if (inst.elem_is_fp) {
                    double d;
                    std::memcpy(&d,
                                bytes.data() + offset +
                                    i * inst.elem_bytes, 8);
                    L[inst.dest_off + i] = LaneValue::ofFP(d);
                } else {
                    uint64_t raw = 0;
                    std::memcpy(&raw,
                                bytes.data() + offset +
                                    i * inst.elem_bytes,
                                inst.elem_bytes);
                    L[inst.dest_off + i] =
                        LaneValue::ofInt(APInt(inst.elem_width, raw));
                }
            }
            break;
          }

          case Opcode::Store: {
            const LaneValue *val = L + inst.op_off[0];
            const LaneValue &p = L[inst.op_off[1]];
            if (p.poison)
                return trap("store to poison pointer");
            if (p.object_id < 0 ||
                p.object_id >= static_cast<int>(memory.size()))
                return trap("store to non-pointer value");
            std::vector<uint8_t> &bytes = memory[p.object_id].bytes;
            uint64_t offset = p.bits.zext();
            if (offset + inst.access_bytes > bytes.size())
                return trap("out-of-bounds store");
            for (uint32_t i = 0; i < inst.op_lanes[0]; ++i) {
                const LaneValue &lane = val[i];
                // Storing poison pins the bytes to zero (the freeze
                // convention).
                uint64_t raw = 0;
                if (!lane.poison) {
                    if (inst.elem_is_fp)
                        std::memcpy(&raw, &lane.fp, 8);
                    else
                        raw = lane.bits.zext();
                }
                std::memcpy(bytes.data() + offset + i * inst.elem_bytes,
                            &raw, inst.elem_bytes);
            }
            break;
          }

          default:
            assert(false && "unhandled opcode in plan execution");
            return trap("internal: unhandled opcode");
        }
        ++pc;
    }
}

PlanResult
ExecPlan::run(ExecFrame &frame, const ExecutionInput &input) const
{
    assert(input.args.size() == num_args_ && "argument count mismatch");
    LaneValue *L = frame.lanes_.data();
    for (unsigned i = 0; i < num_args_; ++i) {
        const SlotInfo &slot = arg_slots_[i];
        const RtValue &v = input.args[i];
        assert(v.lanes.size() == slot.lanes && "argument lane mismatch");
        for (uint32_t lane = 0; lane < slot.lanes; ++lane)
            L[slot.offset + lane] = v.lanes[lane];
    }
    frame.memory_ = input.memory;
    return exec(frame);
}

PlanResult
ExecPlan::runExhaustive(ExecFrame &frame, uint64_t index) const
{
    assert(exhaustive_ok_ && "function has non-integer arguments");
    LaneValue *L = frame.lanes_.data();
    frame.memory_.clear();
    for (const ArgLane &arg : arg_lanes_) {
        uint64_t mask = arg.width >= 64
                            ? ~uint64_t(0)
                            : ((uint64_t(1) << arg.width) - 1);
        L[arg.offset] = LaneValue::ofInt(APInt(arg.width, index & mask));
        index = arg.width >= 64 ? 0 : index >> arg.width;
    }
    return exec(frame);
}

ExecutionResult
ExecPlan::materialize(const ExecFrame &frame,
                      const PlanResult &result) const
{
    ExecutionResult out;
    out.ub = result.ub;
    out.ub_reason = result.ub_reason;
    if (!result.ub && result.has_ret) {
        RtValue v;
        v.lanes.assign(result.ret, result.ret + result.ret_lanes);
        out.ret = std::move(v);
    }
    out.memory = frame.memory_;
    return out;
}

} // namespace lpo::interp
