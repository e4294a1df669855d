(** A MicroPython-like bytecode interpreter (the FaaS language runtime of
    §5.1).

    A small stack VM: enough to express FunctionBench's [float_operation]
    (the paper's FaaS workload) and similar numeric kernels. Execution
    charges interpreter-dispatch cycles to the simulated CPU; the runtime's
    module state lives in simulated memory (allocated by {!zygote_init}) so
    that forking a warmed-up interpreter exercises μFork exactly like the
    real Zygote pattern. *)

type instr =
  | Push of float
  | Load of int  (** Local slot. *)
  | Store of int
  | Add
  | Sub
  | Mul
  | Div
  | Sqrt
  | Sin
  | Cos
  | Dup
  | Pop
  | Load_idx
      (** Pop index; push [locals[int_of_float index]] — array reads. *)
  | Store_idx  (** Pop index, pop value; [locals[index] <- value]. *)
  | Jnz of int  (** Pop; jump to absolute index when non-zero. *)
  | Jmp of int
  | Halt

type program = instr array

exception Runtime_error of string
(** Stack underflow, bad local, division by zero, jump out of range. *)

val float_operation : n:int -> program
(** FunctionBench [float_operation]: [n] iterations of
    sqrt/sin/cos/accumulate (8 instructions each). *)

val matmul : n:int -> program
(** FunctionBench [matmul]: multiply two [n x n] matrices held in locals
    (row-major, A at 16, B at 16+n², C at 16+2n²); returns the checksum of
    C. Requires [locals >= 16 + 3n²]. *)

val matmul_locals : n:int -> int
(** Locals required by {!matmul}. *)

val linpack : n:int -> program
(** FunctionBench [linpack]-style kernel: a daxpy sweep over vectors of
    length [n] ([y <- y + a*x], repeated n times with varying a); returns
    the final checksum of y. Requires [locals >= 16 + 2n]. *)

val linpack_locals : n:int -> int

val cycles_per_instr : int64
(** Interpreter dispatch cost charged per executed instruction (25). *)

val run : Ufork_sas.Api.t -> ?locals:int -> program -> float
(** Execute; returns the top of the stack (0.0 if empty). Charges
    [cycles_per_instr] per executed instruction (batched). *)

val estimated_cycles : ?locals:int -> program -> int64
(** Cycle cost of one {!run} with the same [locals]: exactly the cycles
    [run] charges, counted by the same interpreter loop. Raises what
    [run] raises. *)

val zygote_got_slot : int
val zygote_init : Ufork_sas.Api.t -> modules:int -> unit
(** Warm up the runtime: allocate a module table and per-module objects in
    simulated memory (capability-linked, like real interpreter state) and
    publish the root in {!zygote_got_slot}. This is the expensive
    initialization the Zygote pattern amortizes. *)

val zygote_check : Ufork_sas.Api.t -> int
(** Walk the module table (in a forked child this exercises relocation);
    returns the module count. Raises [Failure] on a corrupted table. *)
