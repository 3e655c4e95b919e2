//===- Runtime.cpp - Host-side compile-and-run API --------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"

using namespace cypress;

ErrorOr<std::unique_ptr<CompiledKernel>>
cypress::compileKernel(const CompileInput &Input, std::string Name) {
  // Built on first use (run is const; the passes are stateless), so
  // CYPRESS_PRINT_IR_AFTER_ALL is read once per process here.
  static const PassPipeline Pipeline = PassPipeline::defaultPipeline();
  SharedAllocation Alloc;
  PipelineStats Stats;
  ErrorOr<IRModule> Module = Pipeline.run(Input, &Alloc, &Stats);
  if (!Module)
    return Module.diagnostic();
  return std::make_unique<CompiledKernel>(std::move(*Module), std::move(Alloc),
                                          std::move(Name), std::move(Stats));
}
