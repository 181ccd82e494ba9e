# One binary per paper table/figure (T*/F*) plus google-benchmark perf
# series (P*). Included from the top-level CMakeLists so that
# ${CMAKE_BINARY_DIR}/bench contains ONLY the bench executables and the
# README's `for b in build/bench/*; do $b; done` loop runs clean.
function(cerb_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} ${ARGN})
  target_compile_definitions(${name} PRIVATE
    CERB_SOURCE_DIR="${CMAKE_SOURCE_DIR}")
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

cerb_bench(fig1_architecture cerb_support)
cerb_bench(fig2_core_syntax cerb_exec)
cerb_bench(fig3_elaboration_shift cerb_exec)
cerb_bench(table_survey cerb_survey)
cerb_bench(table_question_categories cerb_defacto)
cerb_bench(table_provenance_example cerb_defacto)
cerb_bench(table_tool_comparison cerb_tools)
cerb_bench(table_cheri cerb_defacto)
cerb_bench(table_csmith_validation cerb_csmith)
cerb_bench(table_defacto_status cerb_defacto)
cerb_bench(ablation_policy_knobs cerb_defacto)
cerb_bench(perf_pipeline cerb_csmith benchmark::benchmark)
cerb_bench(perf_exhaustive cerb_exec benchmark::benchmark)
cerb_bench(perf_memory_models cerb_exec benchmark::benchmark)
cerb_bench(perf_oracle_batch cerb_oracle cerb_fuzz benchmark::benchmark)
cerb_bench(perf_trace_overhead cerb_exec benchmark::benchmark)
cerb_bench(perf_serve cerb_serve benchmark::benchmark)
