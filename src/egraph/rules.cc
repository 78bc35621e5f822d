#include "egraph/rules.h"

#include <algorithm>
#include <optional>

#include "egraph/extract.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/pattern.h"
#include "ir/printer.h"

namespace lpo::egraph {

using ir::ICmpPred;
using ir::InstFlags;
using ir::Instruction;
using ir::Intrinsic;
using ir::Opcode;
using ir::Type;
using ir::Value;

namespace {

// ---------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------

const ir::ConstantInt *
classInt(const EGraph &graph, ClassId id)
{
    const Value *constant = graph.constantOf(id);
    return constant ? ir::asConstIntOrSplat(constant) : nullptr;
}

bool
isZeroClass(const EGraph &graph, ClassId id)
{
    const ir::ConstantInt *ci = classInt(graph, id);
    return ci && ci->value().isZero();
}

bool
isOneClass(const EGraph &graph, ClassId id)
{
    const ir::ConstantInt *ci = classInt(graph, id);
    return ci && ci->value().isOne();
}

bool
isAllOnesClass(const EGraph &graph, ClassId id)
{
    const ir::ConstantInt *ci = classInt(graph, id);
    return ci && ci->value().isAllOnes();
}

bool
flagless(const ENode &node)
{
    return node.flags == InstFlags{};
}

/** The class of the scalar-or-splat constant @p value of @p type. */
ClassId
typedConstClass(EGraph &graph, const Type *type, const APInt &value)
{
    return graph.addConstant(
        ir::typedConst(graph.context(), type, value));
}

ENode
binNode(Opcode op, const Type *type, ClassId a, ClassId b,
        InstFlags flags = {})
{
    ENode node;
    node.tag = ENode::Tag::Inst;
    node.op = op;
    node.type = type;
    node.flags = flags;
    node.children = {a, b};
    return node;
}

// ---------------------------------------------------------------
// Native rewrites, matched directly on e-nodes
// ---------------------------------------------------------------

/**
 * One pending rewrite: union @p cls with the class its right-hand
 * side builds. A plain record rather than a closure, so a batch of
 * matches allocates nothing past the reused pending list.
 */
struct Pending
{
    enum class Rhs : uint8_t {
        Class,      ///< the existing class x
        Const,      ///< the constant value of type
        AddConst,   ///< add(x, value)
        ShlConst,   ///< shl flags (x, k)
        NegSub,     ///< sub(0, x)
        Trunc,      ///< trunc x to type
        AssocLeft,  ///< op(x, op(y, z))
        AssocRight, ///< op(op(x, y), z)
    };

    ClassId cls = 0;
    Rhs rhs = Rhs::Class;
    Opcode op = Opcode::Add;
    const Type *type = nullptr;
    InstFlags flags;
    ClassId x = 0, y = 0, z = 0;
    APInt value;
};

/** Build @p p's right-hand side in @p graph and return its class. */
ClassId
buildRhs(EGraph &graph, const Pending &p)
{
    switch (p.rhs) {
      case Pending::Rhs::Class:
        return p.x;
      case Pending::Rhs::Const:
        return typedConstClass(graph, p.type, p.value);
      case Pending::Rhs::AddConst: {
        ClassId cc = typedConstClass(graph, p.type, p.value);
        return graph.add(binNode(Opcode::Add, p.type, p.x, cc));
      }
      case Pending::Rhs::ShlConst: {
        ClassId kc = typedConstClass(graph, p.type, p.value);
        return graph.add(binNode(Opcode::Shl, p.type, p.x, kc, p.flags));
      }
      case Pending::Rhs::NegSub: {
        ClassId zc = typedConstClass(
            graph, p.type, APInt::zero(p.type->scalarType()->intWidth()));
        return graph.add(binNode(Opcode::Sub, p.type, zc, p.x));
      }
      case Pending::Rhs::Trunc: {
        ENode t;
        t.tag = ENode::Tag::Inst;
        t.op = Opcode::Trunc;
        t.type = p.type;
        t.children = {p.x};
        return graph.add(std::move(t));
      }
      case Pending::Rhs::AssocLeft: {
        ClassId yz = graph.add(binNode(p.op, p.type, p.y, p.z));
        return graph.add(binNode(p.op, p.type, p.x, yz));
      }
      case Pending::Rhs::AssocRight: {
        ClassId xy = graph.add(binNode(p.op, p.type, p.x, p.y));
        return graph.add(binNode(p.op, p.type, xy, p.z));
      }
    }
    return p.x;
}

/** Largest number of e-nodes a native rewrite's RHS can create. */
constexpr size_t kNativeRhsSlack = 4;

void
matchNode(const EGraph &graph, ClassId c, const ENode &node,
          std::vector<Pending> &out)
{
    if (node.tag != ENode::Tag::Inst)
        return;
    auto emit = [&](Pending::Rhs rhs) -> Pending & {
        Pending &p = out.emplace_back();
        p.cls = c;
        p.rhs = rhs;
        return p;
    };
    auto emitClass = [&](ClassId rhs) { emit(Pending::Rhs::Class).x = rhs; };
    auto emitConst = [&](const Type *type, APInt value) {
        Pending &p = emit(Pending::Rhs::Const);
        p.type = type;
        p.value = value;
    };

    const Type *type = node.type;
    const bool binary = node.children.size() == 2;
    ClassId a = binary ? node.children[0] : 0;
    ClassId b = binary ? node.children[1] : 0;

    switch (node.op) {
      case Opcode::Add: {
        if (!binary)
            break;
        // x + 0 = x (adding zero can never wrap, any flags).
        if (isZeroClass(graph, b))
            emitClass(a);
        if (isZeroClass(graph, a))
            emitClass(b);
        // (x - y) + y = x and y + (x - y) = x, flagless only.
        if (flagless(node)) {
            for (auto [lhs, rhs] : {std::pair{a, b}, std::pair{b, a}}) {
                for (const ENode &m : graph.cls(lhs).nodes) {
                    if (m.tag != ENode::Tag::Inst ||
                        m.op != Opcode::Sub || !flagless(m))
                        continue;
                    if (graph.find(m.children[1]) == graph.find(rhs))
                        emitClass(m.children[0]);
                }
            }
        }
        break;
      }
      case Opcode::Sub: {
        if (!binary)
            break;
        if (isZeroClass(graph, b))
            emitClass(a);
        if (graph.find(a) == graph.find(b) && type->isIntOrIntVector())
            emitConst(type, APInt::zero(type->scalarType()->intWidth()));
        // x - C = x + (-C): the canonical add form, feeding the
        // add-associativity chains. Flagless only (C = INT_MIN aside,
        // nsw/nuw do not translate).
        if (flagless(node)) {
            if (const ir::ConstantInt *ci = classInt(graph, b)) {
                Pending &p = emit(Pending::Rhs::AddConst);
                p.type = type;
                p.x = a;
                p.value = ci->value().neg();
            }
        }
        break;
      }
      case Opcode::Mul: {
        if (!binary)
            break;
        if (isOneClass(graph, b))
            emitClass(a);
        if (isOneClass(graph, a))
            emitClass(b);
        if (isZeroClass(graph, a) || isZeroClass(graph, b))
            emitConst(type, APInt::zero(type->scalarType()->intWidth()));
        for (auto [x, cid] : {std::pair{a, b}, std::pair{b, a}}) {
            const ir::ConstantInt *ci = classInt(graph, cid);
            if (!ci)
                continue;
            const APInt &cv = ci->value();
            // x * 2^k = x << k; the wrap conditions of mul nuw/nsw and
            // shl nuw/nsw coincide — except for 2^(w-1), where the
            // constant is INT_MIN: mul nsw x, INT_MIN is defined at
            // x=1 but shl nsw x, w-1 is poison, so nsw must drop
            // there (nuw's conditions still match).
            if (cv.isPowerOf2() && !cv.isOne()) {
                unsigned k = cv.countTrailingZeros();
                InstFlags flags = node.flags;
                if (cv.isSignedMin())
                    flags.nsw = false;
                Pending &p = emit(Pending::Rhs::ShlConst);
                p.type = type;
                p.x = x;
                p.flags = flags;
                p.value = APInt(type->scalarType()->intWidth(), k);
            }
            // x * -1 = 0 - x (flagless; the overflow cases differ
            // under nuw).
            if (cv.isAllOnes() && flagless(node)) {
                Pending &p = emit(Pending::Rhs::NegSub);
                p.type = type;
                p.x = x;
            }
        }
        break;
      }
      case Opcode::And: {
        if (!binary)
            break;
        if (isAllOnesClass(graph, b))
            emitClass(a);
        if (isAllOnesClass(graph, a))
            emitClass(b);
        if (isZeroClass(graph, a) || isZeroClass(graph, b))
            emitConst(type, APInt::zero(type->scalarType()->intWidth()));
        if (graph.find(a) == graph.find(b))
            emitClass(a);
        break;
      }
      case Opcode::Or: {
        if (!binary)
            break;
        if (isZeroClass(graph, b))
            emitClass(a);
        if (isZeroClass(graph, a))
            emitClass(b);
        if (isAllOnesClass(graph, a) || isAllOnesClass(graph, b))
            emitConst(type,
                      APInt::allOnes(type->scalarType()->intWidth()));
        if (graph.find(a) == graph.find(b))
            emitClass(a);
        break;
      }
      case Opcode::Xor: {
        if (!binary)
            break;
        if (isZeroClass(graph, b))
            emitClass(a);
        if (isZeroClass(graph, a))
            emitClass(b);
        if (graph.find(a) == graph.find(b) && type->isIntOrIntVector())
            emitConst(type, APInt::zero(type->scalarType()->intWidth()));
        break;
      }
      case Opcode::Shl:
      case Opcode::LShr:
      case Opcode::AShr:
        if (binary && isZeroClass(graph, b))
            emitClass(a);
        break;
      case Opcode::UDiv:
      case Opcode::SDiv:
        if (binary && isOneClass(graph, b))
            emitClass(a);
        break;
      case Opcode::URem:
      case Opcode::SRem:
        if (binary && isOneClass(graph, b))
            emitConst(type, APInt::zero(type->scalarType()->intWidth()));
        break;
      case Opcode::ICmp: {
        if (!binary)
            break;
        // Predicates are canonicalized to eq/ne/ult/ule/slt/sle.
        std::optional<bool> bit;
        if (graph.find(a) == graph.find(b)) {
            switch (node.icmp_pred) {
              case ICmpPred::EQ: case ICmpPred::ULE: case ICmpPred::SLE:
                bit = true;
                break;
              case ICmpPred::NE: case ICmpPred::ULT: case ICmpPred::SLT:
                bit = false;
                break;
              default:
                break;
            }
        } else if (node.icmp_pred == ICmpPred::ULT) {
            if (isZeroClass(graph, b))
                bit = false; // x <u 0
            if (isAllOnesClass(graph, a))
                bit = false; // ~0 <u x
        } else if (node.icmp_pred == ICmpPred::ULE) {
            if (isAllOnesClass(graph, b))
                bit = true; // x <=u ~0
            if (isZeroClass(graph, a))
                bit = true; // 0 <=u x
        }
        if (bit)
            emitConst(type, APInt(1, *bit));
        break;
      }
      case Opcode::Select: {
        if (node.children.size() != 3)
            break;
        ClassId cond = node.children[0];
        ClassId tval = node.children[1];
        ClassId fval = node.children[2];
        if (graph.find(tval) == graph.find(fval))
            emitClass(tval);
        if (const ir::ConstantInt *ci = classInt(graph, cond))
            emitClass(ci->value().isOne() ? tval : fval);
        break;
      }
      case Opcode::Call: {
        if (!binary)
            break;
        switch (node.intrinsic) {
          case Intrinsic::UMin:
          case Intrinsic::UMax:
          case Intrinsic::SMin:
          case Intrinsic::SMax: {
            if (graph.find(a) == graph.find(b))
                emitClass(a);
            unsigned width = type->scalarType()->intWidth();
            for (auto [x, cid] : {std::pair{a, b}, std::pair{b, a}}) {
                const ir::ConstantInt *ci = classInt(graph, cid);
                if (!ci)
                    continue;
                const APInt &cv = ci->value();
                // Identity / absorbing elements of each lattice.
                switch (node.intrinsic) {
                  case Intrinsic::UMin:
                    if (cv.isAllOnes())
                        emitClass(x);
                    if (cv.isZero())
                        emitConst(type, APInt::zero(width));
                    break;
                  case Intrinsic::UMax:
                    if (cv.isZero())
                        emitClass(x);
                    if (cv.isAllOnes())
                        emitConst(type, APInt::allOnes(width));
                    break;
                  case Intrinsic::SMin:
                    if (cv == APInt::signedMax(width))
                        emitClass(x);
                    if (cv.isSignedMin())
                        emitConst(type, APInt::signedMin(width));
                    break;
                  case Intrinsic::SMax:
                    if (cv.isSignedMin())
                        emitClass(x);
                    if (cv == APInt::signedMax(width))
                        emitConst(type, APInt::signedMax(width));
                    break;
                  default:
                    break;
                }
            }
            break;
          }
          default:
            break;
        }
        break;
      }
      case Opcode::Trunc: {
        if (node.children.size() != 1 || !flagless(node))
            break;
        for (const ENode &m : graph.cls(node.children[0]).nodes) {
            if (m.tag != ENode::Tag::Inst || m.children.size() != 1)
                continue;
            // trunc(zext/sext(x)) = x when x already has the target
            // type (the extension only added bits the trunc removes).
            if ((m.op == Opcode::ZExt || m.op == Opcode::SExt) &&
                graph.typeOf(m.children[0]) == type)
                emitClass(m.children[0]);
            // trunc(trunc(x)) = trunc(x) straight to the final width.
            if (m.op == Opcode::Trunc && flagless(m)) {
                Pending &p = emit(Pending::Rhs::Trunc);
                p.type = type;
                p.x = m.children[0];
            }
        }
        break;
      }
      default:
        break;
    }

    // Associativity for the flagless int bitwise/arith group, both
    // rotations. (Commutativity is free via canonical operand order.)
    if (binary && flagless(node) &&
        (node.op == Opcode::Add || node.op == Opcode::Mul ||
         node.op == Opcode::And || node.op == Opcode::Or ||
         node.op == Opcode::Xor)) {
        Opcode op = node.op;
        for (const ENode &m : graph.cls(a).nodes) {
            if (m.tag != ENode::Tag::Inst || m.op != op || !flagless(m))
                continue;
            Pending &p = emit(Pending::Rhs::AssocLeft);
            p.op = op;
            p.type = type;
            p.x = m.children[0];
            p.y = m.children[1];
            p.z = b;
        }
        for (const ENode &m : graph.cls(b).nodes) {
            if (m.tag != ENode::Tag::Inst || m.op != op || !flagless(m))
                continue;
            Pending &p = emit(Pending::Rhs::AssocRight);
            p.op = op;
            p.type = type;
            p.x = a;
            p.y = m.children[0];
            p.z = m.children[1];
        }
    }
}

/** One batch: match everywhere, then apply under the node budget.
 *  @p classes and @p pending are scratch buffers. */
void
applyNativeRules(EGraph &graph, const SaturationLimits &limits,
                 SaturationStats &stats, std::vector<ClassId> &classes,
                 std::vector<Pending> &pending)
{
    pending.clear();
    graph.canonicalClasses(classes);
    ENode canonical;
    for (ClassId c : classes) {
        // Matching only reads the graph, so no snapshot is needed.
        for (const ENode &node : graph.cls(c).nodes) {
            canonical = node;
            for (ClassId &child : canonical.children)
                child = graph.find(child);
            matchNode(graph, c, canonical, pending);
        }
    }
    for (const Pending &p : pending) {
        if (graph.numNodes() + kNativeRhsSlack > limits.max_nodes) {
            stats.node_budget_hit = true;
            break;
        }
        ClassId rhs = buildRhs(graph, p);
        if (graph.find(p.cls) != graph.find(rhs)) {
            graph.merge(p.cls, rhs);
            ++stats.native_applications;
        }
    }
    graph.rebuild();
}

// ---------------------------------------------------------------
// The algebraic function-level rule set (ir/pattern.h matchers)
// ---------------------------------------------------------------

using ir::typedConst;
using llm::Rewriter;

ICmpPred
invertedICmpPred(ICmpPred pred)
{
    switch (pred) {
      case ICmpPred::EQ: return ICmpPred::NE;
      case ICmpPred::NE: return ICmpPred::EQ;
      case ICmpPred::ULT: return ICmpPred::UGE;
      case ICmpPred::ULE: return ICmpPred::UGT;
      case ICmpPred::UGT: return ICmpPred::ULE;
      case ICmpPred::UGE: return ICmpPred::ULT;
      case ICmpPred::SLT: return ICmpPred::SGE;
      case ICmpPred::SLE: return ICmpPred::SGT;
      case ICmpPred::SGT: return ICmpPred::SLE;
      case ICmpPred::SGE: return ICmpPred::SLT;
    }
    return ICmpPred::EQ;
}

/** xor(icmp p a b, true) -> icmp !p a b. */
std::optional<std::string>
rwXorNotCmp(const ir::Function &fn)
{
    Value *ret = llm::returnedValue(fn);
    Value *a, *b;
    if (!ret || !ir::matchBinary(ret, Opcode::Xor, &a, &b))
        return std::nullopt;
    if (!ir::isAllOnesInt(b))
        std::swap(a, b);
    if (!ir::isAllOnesInt(b))
        return std::nullopt;
    ICmpPred pred;
    Value *cx, *cy;
    if (!ir::matchICmp(a, &pred, &cx, &cy))
        return std::nullopt;

    Rewriter rw(fn);
    Value *result = rw.b().icmp(invertedICmpPred(pred), rw.take(cx),
                                rw.take(cy));
    return rw.finish(result);
}

/** lshr(shl(x, k), k) -> and(x, ~0 >> k), flagless shifts only. */
std::optional<std::string>
rwShlLshrMask(const ir::Function &fn)
{
    Value *ret = llm::returnedValue(fn);
    Value *shl_v, *k1_v;
    if (!ret || !ir::matchBinary(ret, Opcode::LShr, &shl_v, &k1_v))
        return std::nullopt;
    if (static_cast<Instruction *>(ret)->flags().exact)
        return std::nullopt;
    Value *x, *k2_v;
    if (!ir::matchBinary(shl_v, Opcode::Shl, &x, &k2_v))
        return std::nullopt;
    auto *shl = static_cast<Instruction *>(shl_v);
    if (shl->flags().nuw || shl->flags().nsw)
        return std::nullopt;
    APInt k1, k2;
    if (!ir::matchConstInt(k1_v, &k1) || !ir::matchConstInt(k2_v, &k2) ||
        !k1.eq(k2) || k1.zext() >= k1.width())
        return std::nullopt;

    Rewriter rw(fn);
    Value *xx = rw.take(x);
    APInt mask = APInt::allOnes(k1.width())
                     .lshr(static_cast<unsigned>(k1.zext()));
    Value *result =
        rw.b().andOp(xx, typedConst(rw.ctx(), xx->type(), mask));
    return rw.finish(result);
}

/** select(icmp eq a b, a, b) -> b; select(icmp ne a b, a, b) -> a. */
std::optional<std::string>
rwSelectEqArms(const ir::Function &fn)
{
    Value *ret = llm::returnedValue(fn);
    Value *cond, *tval, *fval;
    if (!ret || !ir::matchSelect(ret, &cond, &tval, &fval))
        return std::nullopt;
    ICmpPred pred;
    Value *cx, *cy;
    if (!ir::matchICmp(cond, &pred, &cx, &cy) ||
        (pred != ICmpPred::EQ && pred != ICmpPred::NE))
        return std::nullopt;
    bool arms_match = (cx == tval && cy == fval) ||
                      (cx == fval && cy == tval);
    if (!arms_match)
        return std::nullopt;

    Rewriter rw(fn);
    // eq: both branches equal the false arm; ne: the true arm.
    Value *result = rw.take(pred == ICmpPred::EQ ? fval : tval);
    return rw.finish(result);
}

/** Absorption: or(x, and(x, y)) -> x and and(x, or(x, y)) -> x. */
std::optional<std::string>
rwAbsorb(const ir::Function &fn)
{
    Value *ret = llm::returnedValue(fn);
    if (!ret)
        return std::nullopt;
    for (auto [outer, inner] : {std::pair{Opcode::Or, Opcode::And},
                                std::pair{Opcode::And, Opcode::Or}}) {
        Value *a, *b;
        if (!ir::matchBinary(ret, outer, &a, &b))
            continue;
        for (auto [x, composite] : {std::pair{a, b}, std::pair{b, a}}) {
            Value *p, *q;
            if (!ir::matchBinary(composite, inner, &p, &q))
                continue;
            if (p != x && q != x)
                continue;
            Rewriter rw(fn);
            return rw.finish(rw.take(x));
        }
    }
    return std::nullopt;
}

/** sub(x, C) -> add(x, -C): canonical add form, flagless only. */
std::optional<std::string>
rwSubConstToAdd(const ir::Function &fn)
{
    Value *ret = llm::returnedValue(fn);
    Value *x, *c_v;
    if (!ret || !ir::matchBinary(ret, Opcode::Sub, &x, &c_v))
        return std::nullopt;
    auto *sub = static_cast<Instruction *>(ret);
    if (sub->flags().nuw || sub->flags().nsw)
        return std::nullopt;
    APInt c;
    if (!ir::matchConstInt(c_v, &c) || c.isZero())
        return std::nullopt;

    Rewriter rw(fn);
    Value *xx = rw.take(x);
    Value *result =
        rw.b().add(xx, typedConst(rw.ctx(), xx->type(), c.neg()));
    return rw.finish(result);
}

/** zext(trunc(x)) back to x's own type -> and(x, narrow mask). */
std::optional<std::string>
rwZextTruncMask(const ir::Function &fn)
{
    Value *ret = llm::returnedValue(fn);
    Value *t_v;
    if (!ret || !ir::matchCast(ret, Opcode::ZExt, &t_v))
        return std::nullopt;
    Value *x;
    if (!ir::matchCast(t_v, Opcode::Trunc, &x))
        return std::nullopt;
    auto *trunc = static_cast<Instruction *>(t_v);
    if (trunc->flags().nuw || trunc->flags().nsw)
        return std::nullopt;
    if (ret->type() != x->type())
        return std::nullopt;
    unsigned narrow = t_v->type()->scalarType()->intWidth();
    unsigned wide = x->type()->scalarType()->intWidth();

    Rewriter rw(fn);
    Value *xx = rw.take(x);
    APInt mask = APInt::allOnes(narrow).zextTo(wide);
    Value *result =
        rw.b().andOp(xx, typedConst(rw.ctx(), xx->type(), mask));
    return rw.finish(result);
}

// ---------------------------------------------------------------
// Directed replay + saturation loop
// ---------------------------------------------------------------

bool
sameSignature(const ir::Function &a, const ir::Function &b)
{
    if (a.returnType() != b.returnType() || a.numArgs() != b.numArgs())
        return false;
    for (unsigned i = 0; i < a.numArgs(); ++i)
        if (a.arg(i)->type() != b.arg(i)->type())
            return false;
    return true;
}

/** Apply every directed rule (algebraic set + rewrite library) to
 *  @p fn and union each parseable same-signature result with the
 *  root. Skips insertions that would exceed the node budget. Sets
 *  @p max_bound to the largest insertionUpperBound of those results
 *  (0 when there were none). */
unsigned
replayDirectedRules(EGraph &graph, ClassId root, const ir::Function &fn,
                    const SaturationLimits &limits,
                    SaturationStats &stats, size_t &max_bound)
{
    unsigned applied = 0;
    max_bound = 0;
    auto tryRule = [&](const llm::RewriteRule &rule) {
        std::optional<std::string> text = rule.apply(fn);
        if (!text)
            return;
        auto parsed = ir::parseFunction(graph.context(), *text);
        if (!parsed.ok())
            return;
        const ir::Function &candidate = **parsed;
        if (!sameSignature(candidate, fn))
            return;
        size_t bound = EGraph::insertionUpperBound(candidate);
        max_bound = std::max(max_bound, bound);
        if (graph.numNodes() + bound > limits.max_nodes) {
            stats.node_budget_hit = true;
            return;
        }
        std::optional<ClassId> cls = graph.addFunction(candidate);
        if (!cls)
            return;
        if (graph.find(*cls) != graph.find(root)) {
            graph.merge(*cls, root);
            ++applied;
        }
    };
    for (const llm::RewriteRule &rule : algebraicRules())
        tryRule(rule);
    for (const llm::RewriteRule &rule : llm::rewriteLibrary())
        tryRule(rule);
    graph.rebuild();
    ++stats.replays;
    return applied;
}

/** Nodes plus merges: both monotone, so equal values mean the graph
 *  (every class's node list and the union-find) has not changed. */
uint64_t
graphVersion(const EGraph &graph)
{
    return graph.mergeCount() + graph.numNodes();
}

/**
 * The saturation loop's buffers, kept per thread so a consult after
 * the first allocates only what its rules and its answer need.
 * saturate() is never re-entered on a thread: the directed rules it
 * calls do not saturate.
 */
struct SaturationWorkspace
{
    std::optional<EGraph> graph; ///< bestEquivalent's graph
    Extraction extraction;
    std::vector<ClassId> classes;
    std::vector<Pending> pending;
    TermKey replayed_key;
    TermKey best_key;
};

SaturationWorkspace &
workspace()
{
    thread_local SaturationWorkspace ws;
    return ws;
}

} // namespace

const std::vector<llm::RewriteRule> &
algebraicRules()
{
    static const std::vector<llm::RewriteRule> rules = [] {
        std::vector<llm::RewriteRule> out;
        out.push_back({"alg_xor_not_cmp", 0.0, rwXorNotCmp});
        out.push_back({"alg_shl_lshr_mask", 0.0, rwShlLshrMask});
        out.push_back({"alg_select_eq_arms", 0.0, rwSelectEqArms});
        out.push_back({"alg_absorb", 0.0, rwAbsorb});
        out.push_back({"alg_sub_const_add", 0.0, rwSubConstToAdd});
        out.push_back({"alg_zext_trunc_mask", 0.0, rwZextTruncMask});
        return out;
    }();
    return rules;
}

SaturationStats
saturate(EGraph &graph, ClassId root, const ir::Function &seq,
         const SaturationLimits &limits, std::unique_ptr<ir::Function> *best)
{
    SaturationWorkspace &ws = workspace();
    SaturationStats stats;
    // The function replayed last: its term key, the function itself
    // (null while it is seq) and its results' largest insertion bound.
    TermKey &replayed_key = ws.replayed_key;
    std::unique_ptr<ir::Function> replayed;
    size_t replayed_bound = 0;

    // Pass 0: replay the directed rules against the verbatim input,
    // so library patterns match the source's exact spelling before
    // any canonicalization reshapes it.
    functionKey(seq, replayed_key);
    stats.replay_applications += replayDirectedRules(
        graph, root, seq, limits, stats, replayed_bound);

    // The graph version the last extraction read, and whether its
    // best was the replayed function.
    std::optional<uint64_t> extracted_at;
    bool best_is_replayed = false;
    for (unsigned iter = 1; iter <= limits.max_iterations; ++iter) {
        stats.iterations = iter;
        uint64_t before = graphVersion(graph);
        applyNativeRules(graph, limits, stats, ws.classes, ws.pending);

        extracted_at = graphVersion(graph);
        best_is_replayed = false;
        ++stats.extractions;
        if (ws.extraction.run(graph, root)) {
            ws.extraction.termKey(ws.best_key);
            if (ws.best_key == replayed_key) {
                // Replaying the same function again adds no node and
                // no merge; only its budget check can still fire, as
                // the graph has grown since.
                best_is_replayed = true;
                if (replayed_bound &&
                    graph.numNodes() + replayed_bound > limits.max_nodes)
                    stats.node_budget_hit = true;
            } else if (auto fn = ws.extraction.materialize(seq)) {
                stats.replay_applications += replayDirectedRules(
                    graph, root, *fn, limits, stats, replayed_bound);
                replayed = std::move(fn);
                replayed_key.swap(ws.best_key);
                best_is_replayed = true;
            }
        }

        uint64_t after = graphVersion(graph);
        if (after == before) {
            stats.saturated = !stats.node_budget_hit;
            break;
        }
        if (stats.node_budget_hit)
            break;
    }

    if (best) {
        best->reset();
        if (extracted_at != graphVersion(graph)) {
            // A budget or iteration-cap exit after the replay changed
            // the graph (or no iteration ran): extract once more.
            ++stats.extractions;
            if (ws.extraction.run(graph, root)) {
                ws.extraction.termKey(ws.best_key);
                if (ws.best_key == replayed_key)
                    *best = std::move(replayed);
                else
                    *best = ws.extraction.materialize(seq);
            }
        } else if (best_is_replayed) {
            *best = std::move(replayed);
        }
    }
    stats.nodes = graph.numNodes();
    stats.merges = graph.mergeCount();
    return stats;
}

std::unique_ptr<ir::Function>
bestEquivalent(const ir::Function &seq, const SaturationLimits &limits,
               SaturationStats *stats)
{
    std::optional<EGraph> &graph = workspace().graph;
    if (graph)
        graph->reset(seq.context());
    else
        graph.emplace(seq.context());
    std::optional<ClassId> root = graph->addFunction(seq);
    if (!root)
        return nullptr;
    std::unique_ptr<ir::Function> best;
    SaturationStats done = saturate(*graph, *root, seq, limits, &best);
    if (stats)
        *stats = done;
    return best;
}

} // namespace lpo::egraph
