#include "corpus/generator.h"

#include <cassert>

#include "corpus/benchmarks.h"
#include "ir/builder.h"
#include "ir/parser.h"

namespace lpo::corpus {

using ir::Builder;
using ir::InstFlags;
using ir::Instruction;
using ir::Intrinsic;
using ir::Opcode;
using ir::Type;
using ir::Value;

const std::vector<ProjectProfile> &
paperProjects()
{
    static const std::vector<ProjectProfile> projects = {
        {"cpython", "C"},   {"ffmpeg", "C"},   {"linux", "C"},
        {"openssl", "C"},   {"redis", "C"},    {"node", "C++"},
        {"protobuf", "C++"},{"opencv", "C++"}, {"z3", "C++"},
        {"pingora", "Rust"},{"ripgrep", "Rust"},{"typst", "Rust"},
        {"uv", "Rust"},     {"zed", "Rust"},
    };
    return projects;
}

CorpusGenerator::CorpusGenerator(ir::Context &context,
                                 CorpusOptions options)
    : context_(context), options_(options)
{
}

void
CorpusGenerator::addNoiseFunction(ir::Module &module, Rng &rng,
                                  const std::string &name)
{
    // A straight-line integer function over 2-4 arguments with a chain
    // of 4-12 operations. Operand choices bias toward recent values so
    // dependence chains look like real optimized IR.
    static const unsigned widths[] = {8, 16, 32, 32, 64};
    unsigned width = widths[rng.nextBelow(5)];
    const Type *type = context_.types().intTy(width);

    unsigned num_args = 2 + rng.nextBelow(3);
    ir::Function *fn = module.createFunction(name, type);
    for (unsigned i = 0; i < num_args; ++i)
        fn->addArg(type, "a" + std::to_string(i));
    ir::BasicBlock *block = fn->addBlock("entry");
    Builder b(*fn, block);

    std::vector<Value *> values;
    for (unsigned i = 0; i < num_args; ++i)
        values.push_back(fn->arg(i));

    auto pick = [&]() -> Value * {
        // Prefer the most recent few values.
        size_t n = values.size();
        if (n > 3 && rng.chance(0.6))
            return values[n - 1 - rng.nextBelow(3)];
        return values[rng.nextBelow(n)];
    };

    unsigned chain = 4 + rng.nextBelow(9);
    for (unsigned i = 0; i < chain; ++i) {
        Value *result = nullptr;
        switch (rng.nextBelow(8)) {
          case 0:
            result = b.add(pick(), pick());
            break;
          case 1:
            result = b.sub(pick(), pick());
            break;
          case 2:
            result = b.xorOp(pick(), pick());
            break;
          case 3: {
            // Non-identity odd constant keeps InstCombine quiet.
            uint64_t c = 2 * rng.nextBelow(40) + 3;
            result = b.mul(pick(), context_.getInt(type, APInt(width, c)));
            break;
          }
          case 4:
            result = b.andOp(pick(), pick());
            break;
          case 5:
            result = b.umin(pick(), pick());
            break;
          case 6:
            result = b.umax(pick(), pick());
            break;
          default: {
            Value *cond = b.icmp(ir::ICmpPred::SLT, pick(), pick());
            result = b.select(cond, pick(), pick());
            break;
          }
        }
        values.push_back(result);
    }
    b.ret(values.back());
    fn->numberValues();
}

std::unique_ptr<ir::Module>
CorpusGenerator::generateFile(const ProjectProfile &project,
                              unsigned file_index)
{
    Rng rng = Rng(options_.seed)
                  .fork(project.name)
                  .fork("file" + std::to_string(file_index));
    auto module = std::make_unique<ir::Module>(
        context_, project.name + "/ir/file" +
                      std::to_string(file_index) + ".ll");

    const auto &patterns = rq2Benchmarks();
    for (unsigned f = 0; f < options_.functions_per_file; ++f) {
        std::string fn_name = "fn_" + std::to_string(file_index) + "_" +
                              std::to_string(f);
        if (rng.chance(options_.pattern_density)) {
            const MissedOptBenchmark &bench =
                patterns[rng.nextBelow(patterns.size())];
            auto parsed = ir::parseFunction(context_, bench.src_text);
            assert(parsed && "catalog entry must parse");
            std::unique_ptr<ir::Function> fn =
                (*parsed)->clone(fn_name + "_" + bench.issue_id);
            embeddings_.push_back(EmbeddedPattern{
                bench.issue_id, project.name, file_index, fn->name()});
            module->addFunction(std::move(fn));
        } else {
            addNoiseFunction(*module, rng, fn_name);
        }
    }

    // One loop-shaped function per file for structural realism (the
    // extractor must cope with phi/br).
    {
        const Type *i64 = context_.types().intTy(64);
        const Type *i32 = context_.types().intTy(32);
        ir::Function *fn = module->createFunction(
            "loop_" + std::to_string(file_index), i32);
        fn->addArg(i64, "n");
        fn->addArg(i32, "seed");
        ir::BasicBlock *entry = fn->addBlock("entry");
        ir::BasicBlock *body = fn->addBlock("loop.body");
        ir::BasicBlock *exit = fn->addBlock("loop.exit");
        Builder be(*fn, entry);
        be.br("loop.body");
        Builder bb(*fn, body);
        Instruction *iv = bb.phi(i64, {context_.getInt(i64, APInt(64, 0)),
                                       nullptr},
                                 {"entry", "loop.body"});
        Instruction *acc = bb.phi(i32, {fn->arg(1), nullptr},
                                  {"entry", "loop.body"});
        Value *mixed = bb.xorOp(
            acc, bb.mul(acc, context_.getInt(i32, APInt(32, 2654435761u)
                                                      .truncTo(32))));
        InstFlags nuw;
        nuw.nuw = true;
        Instruction *next = bb.binary(Opcode::Add, iv,
                                      context_.getInt(i64, APInt(64, 1)),
                                      nuw);
        iv->setOperand(1, next);
        acc->setOperand(1, mixed);
        Value *done = bb.icmp(ir::ICmpPred::UGE, next, fn->arg(0));
        bb.condBr(done, "loop.exit", "loop.body");
        Builder bx(*fn, exit);
        bx.ret(acc);
        fn->numberValues();
    }
    return module;
}

const std::vector<const MissedOptBenchmark *> &
stitchableBenchmarks()
{
    static const std::vector<const MissedOptBenchmark *> pool = [] {
        auto eligible = [](const ir::Function &fn) {
            if (fn.blocks().size() != 1 || !fn.returnType()->isInt() ||
                fn.instructionCount() < 2)
                return false;
            for (const auto &arg : fn.args())
                if (!arg->type()->isInt())
                    return false;
            for (const auto &inst : fn.entry()->instructions()) {
                switch (inst->op()) {
                  case Opcode::Load:
                  case Opcode::Store:
                  case Opcode::Gep:
                  case Opcode::Phi:
                  case Opcode::FAdd:
                  case Opcode::FSub:
                  case Opcode::FMul:
                  case Opcode::FDiv:
                  case Opcode::FCmp:
                    return false;
                  default:
                    break;
                }
                if (!inst->isTerminator() && !inst->type()->isInt())
                    return false;
                for (const Value *operand : inst->operands())
                    if (!operand->type()->isInt())
                        return false;
            }
            return true;
        };
        std::vector<const MissedOptBenchmark *> v;
        for (const auto *catalog : {&rq1Benchmarks(), &rq2Benchmarks()}) {
            for (const MissedOptBenchmark &bench : *catalog) {
                ir::Context probe;
                auto parsed = ir::parseFunction(probe, bench.src_text);
                if (parsed.ok() && eligible(**parsed))
                    v.push_back(&bench);
            }
        }
        return v;
    }();
    return pool;
}

std::unique_ptr<ir::Module>
CorpusGenerator::largeModule(uint64_t seed, unsigned num_functions,
                             unsigned blocks_per_fn)
{
    const auto &pool = stitchableBenchmarks();
    assert(!pool.empty() && blocks_per_fn > 0);

    // Parse each pool entry once, into the module's own context so
    // the stitched clones share its interned constants.
    std::vector<std::unique_ptr<ir::Function>> prototypes;
    prototypes.reserve(pool.size());
    for (const MissedOptBenchmark *bench : pool)
        prototypes.push_back(
            ir::parseFunction(context_, bench->src_text).take());

    auto module = std::make_unique<ir::Module>(
        context_, "large/seed" + std::to_string(seed) + ".ll");
    const Type *i64 = context_.types().intTy(64);

    for (unsigned i = 0; i < num_functions; ++i) {
        Rng rng = Rng(seed).fork("large").fork("fn" + std::to_string(i));
        ir::Function *fn =
            module->createFunction("f" + std::to_string(i), i64);

        // Block labels carry the embedded family so patch records can
        // be folded per family downstream.
        std::vector<size_t> picks(blocks_per_fn);
        std::vector<std::string> labels(blocks_per_fn);
        for (unsigned j = 0; j < blocks_per_fn; ++j) {
            picks[j] = (size_t(i) * blocks_per_fn + j) % pool.size();
            labels[j] =
                "s" + std::to_string(j) + "." + pool[picks[j]]->family;
        }

        // Results waiting to be folded into the accumulator; folding
        // happens one block downstream of the producer so per-block
        // sequence extraction sees each pattern body on its own.
        std::vector<Value *> pending;
        Value *acc = nullptr;
        auto fold_pending = [&](Builder &b) {
            for (Value *v : pending) {
                Value *wide = v->type() == i64 ? v : b.zext(v, i64);
                acc = acc ? b.xorOp(acc, wide) : wide;
            }
            pending.clear();
        };

        for (unsigned j = 0; j < blocks_per_fn; ++j) {
            ir::BasicBlock *block = fn->addBlock(labels[j]);
            Builder b(*fn, block);
            fold_pending(b);

            // Stitch the pattern body: fresh function arguments stand
            // in for the prototype's, instructions are cloned.
            const ir::Function &proto = *prototypes[picks[j]];
            ir::ValueRemap remap;
            for (const auto &arg : proto.args())
                remap.insert(arg.get(),
                             fn->addArg(arg->type(),
                                        "a" + std::to_string(fn->numArgs())));
            Value *tail = nullptr;
            for (const auto &inst : proto.entry()->instructions()) {
                if (inst->isTerminator()) {
                    tail = inst->operand(0);
                    if (Value *const *mapped = remap.find(tail))
                        tail = *mapped;
                    continue;
                }
                remap.insert(inst.get(),
                             block->append(ir::cloneInstruction(*inst, remap)));
            }
            pending.push_back(tail);

            // Occasional noise chain over its own fresh arguments
            // (isolated from the pattern, so it forms independent
            // sequences in the same block — realistic clutter).
            if (rng.chance(0.35)) {
                static const unsigned widths[] = {8, 16, 32, 64};
                const Type *nt =
                    context_.types().intTy(widths[rng.nextBelow(4)]);
                Value *x = fn->addArg(
                    nt, "a" + std::to_string(fn->numArgs()));
                Value *y = fn->addArg(
                    nt, "a" + std::to_string(fn->numArgs()));
                Value *cur = x;
                bool was_mul = false;
                unsigned chain = 3 + rng.nextBelow(4);
                for (unsigned k = 0; k < chain; ++k) {
                    unsigned op = rng.nextBelow(5);
                    // Never stack constant multiplies at wide widths:
                    // the e-graph folds them, and proving the fold is
                    // a worst-case SAT query (64-bit carry chains) —
                    // not the workload this module models.
                    if (op == 4 && (was_mul || nt->intWidth() > 16))
                        op = 2;
                    was_mul = op == 4;
                    switch (op) {
                      case 0: cur = b.add(cur, y); break;
                      case 1: cur = b.sub(cur, y); break;
                      case 2: cur = b.xorOp(cur, y); break;
                      case 3: cur = b.umin(cur, y); break;
                      default:
                        cur = b.mul(cur,
                                    context_.getInt(
                                        nt, APInt(nt->intWidth(),
                                                  2 * rng.nextBelow(40) +
                                                      3)));
                        break;
                    }
                }
                pending.push_back(cur);
            }

            b.br(j + 1 < blocks_per_fn ? labels[j + 1] : "fin");
        }

        ir::BasicBlock *fin = fn->addBlock("fin");
        Builder bf(*fn, fin);
        fold_pending(bf);
        bf.ret(acc);

        // Builder temp names restart per block; renumber the whole
        // function so every value name is unique and round-trips.
        for (const auto &bb : fn->blocks())
            for (const auto &inst : bb->instructions())
                inst->setName("");
        fn->numberValues();
    }
    return module;
}

std::vector<std::unique_ptr<ir::Module>>
CorpusGenerator::generateAll()
{
    std::vector<std::unique_ptr<ir::Module>> modules;
    for (const ProjectProfile &project : paperProjects())
        for (unsigned f = 0; f < options_.files_per_project; ++f)
            modules.push_back(generateFile(project, f));
    return modules;
}

} // namespace lpo::corpus
