type outcome =
  | Completed of { attempts : int; payload : string }
  | Failed of { attempts : int; reason : string }

type event =
  | Started of { job : int; attempt : int }
  | Retrying of { job : int; attempt : int; reason : string }

let now () = Unix.gettimeofday ()

(* ---- in-process fallback (workers <= 0): the sequential reference ---- *)

let run_inline ~retries ~on_outcome ~on_event ~jobs f =
  Array.init jobs (fun i ->
      let rec go attempt =
        on_event (Started { job = i; attempt });
        let failed reason =
          if attempt > retries then Failed { attempts = attempt; reason }
          else begin
            on_event (Retrying { job = i; attempt; reason });
            go (attempt + 1)
          end
        in
        match f i with
        | Ok payload -> Completed { attempts = attempt; payload }
        | Error reason -> failed reason
        | exception e -> failed (Printexc.to_string e)
      in
      let o = go 1 in
      on_outcome i o;
      o)

(* ---- forked pool ---- *)

type worker = {
  pid : int;
  req : Unix.file_descr;  (** parent's write end of the job queue *)
  rd : Protocol.reader;
  mutable assigned : int option;
  mutable deadline : float;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let worker_loop f req_r resp_w =
  let ic = Unix.in_channel_of_descr req_r in
  let rec loop () =
    match Protocol.read_request ic with
    | Some (Protocol.Run i) ->
      let reply =
        match f i with
        | Ok payload -> { Protocol.job = i; ok = true; payload }
        | Error payload -> { Protocol.job = i; ok = false; payload }
        | exception e ->
          { Protocol.job = i; ok = false; payload = Printexc.to_string e }
      in
      Protocol.write_reply resp_w reply;
      loop ()
    | Some Protocol.Quit | None -> exit 0
  in
  (try loop () with _ -> exit 1)

let run ?(workers = 4) ?(timeout_s = 300.) ?(retries = 2) ?(backoff_s = 0.5)
    ?(on_outcome = fun _ _ -> ()) ?(on_event = fun _ -> ()) ~jobs f =
  if jobs = 0 then [||]
  else if workers <= 0 then run_inline ~retries ~on_outcome ~on_event ~jobs f
  else begin
    let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    let outcomes : outcome option array = Array.make jobs None in
    let attempts = Array.make jobs 0 in
    let remaining = ref jobs in
    (* (job, earliest start) — jobs awaiting a worker, retried ones with
       their backoff deadline *)
    let pending = ref (List.init jobs (fun i -> (i, 0.))) in
    let live : worker list ref = ref [] in
    let finalize i o =
      outcomes.(i) <- Some o;
      decr remaining;
      on_outcome i o
    in
    let attempt_failed i reason =
      if attempts.(i) > retries then
        finalize i (Failed { attempts = attempts.(i); reason })
      else begin
        on_event (Retrying { job = i; attempt = attempts.(i); reason });
        let delay = backoff_s *. (2. ** float_of_int (attempts.(i) - 1)) in
        pending := !pending @ [ (i, now () +. delay) ]
      end
    in
    let spawn () =
      (* a child inherits every unflushed output buffer and would write
         it again when it exits: empty them all first *)
      flush_all ();
      let req_r, req_w = Unix.pipe () in
      let resp_r, resp_w = Unix.pipe () in
      match Unix.fork () with
      | 0 ->
        close_quietly req_w;
        close_quietly resp_r;
        (* drop the parent's ends of every sibling's pipes so a sibling's
           queue actually closes when the parent exits *)
        List.iter
          (fun w ->
            close_quietly w.req;
            close_quietly (Protocol.reader_fd w.rd))
          !live;
        worker_loop f req_r resp_w
      | pid ->
        close_quietly req_r;
        close_quietly resp_w;
        let w =
          {
            pid;
            req = req_w;
            rd = Protocol.reader resp_r;
            assigned = None;
            deadline = infinity;
          }
        in
        live := w :: !live;
        w
    in
    let retire ?victim_reason w =
      (match victim_reason with
      | Some _ -> ( try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
      | None -> ());
      reap w.pid;
      close_quietly w.req;
      close_quietly (Protocol.reader_fd w.rd);
      live := List.filter (fun w' -> w'.pid <> w.pid) !live;
      match w.assigned with
      | Some i ->
        attempt_failed i
          (Option.value victim_reason ~default:"worker exited unexpectedly")
      | None -> ()
    in
    let rec assign_ready () =
      let idle = List.filter (fun w -> w.assigned = None) !live in
      match idle with
      | [] -> ()
      | w :: _ -> (
        let t = now () in
        let ready, waiting = List.partition (fun (_, e) -> e <= t) !pending in
        match ready with
        | [] -> ()
        | (i, _) :: rest ->
          pending := rest @ waiting;
          attempts.(i) <- attempts.(i) + 1;
          (match Protocol.write_request w.req (Protocol.Run i) with
          | () ->
            w.assigned <- Some i;
            w.deadline <- t +. timeout_s;
            on_event (Started { job = i; attempt = attempts.(i) })
          | exception _ ->
            (* the worker died before we could feed it *)
            attempts.(i) <- attempts.(i) - 1;
            pending := (i, 0.) :: !pending;
            retire w);
          assign_ready ())
    in
    let handle_readable w =
      match Protocol.feed w.rd with
      | `Eof -> retire w
      | `Data ->
        let rec drain () =
          match Protocol.next_reply w.rd with
          | None -> ()
          | Some (Error reason) -> retire ~victim_reason:reason w
          | Some (Ok { Protocol.job; ok; payload }) ->
            w.assigned <- None;
            w.deadline <- infinity;
            if ok then
              finalize job (Completed { attempts = attempts.(job); payload })
            else attempt_failed job payload;
            drain ()
        in
        drain ()
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun w ->
            (try Protocol.write_request w.req Protocol.Quit with _ -> ());
            close_quietly w.req;
            (* idle workers exit on Quit (running their at_exit hooks);
               busy ones — we only get here busy on an exception — are
               killed so the pool never hangs on shutdown *)
            if w.assigned <> None then (
              try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
            reap w.pid;
            close_quietly (Protocol.reader_fd w.rd))
          !live;
        live := [];
        ignore (Sys.signal Sys.sigpipe prev_sigpipe))
      (fun () ->
        while !remaining > 0 do
          (* keep the pool at strength while unresolved jobs remain *)
          while List.length !live < min workers !remaining do
            ignore (spawn ())
          done;
          assign_ready ();
          let t = now () in
          (* kill overrunning workers *)
          List.iter
            (fun w ->
              if w.assigned <> None && t >= w.deadline then
                retire
                  ~victim_reason:(Printf.sprintf "timeout after %.3gs" timeout_s)
                  w)
            !live;
          if !remaining > 0 then begin
            let next_deadline =
              List.fold_left
                (fun acc w -> if w.assigned <> None then min acc w.deadline else acc)
                infinity !live
            in
            let next_start =
              List.fold_left (fun acc (_, e) -> min acc e) infinity !pending
            in
            let timeout =
              let u = min next_deadline next_start -. now () in
              if u = infinity then 1.0 else Float.max 0.005 (Float.min u 1.0)
            in
            let fds = List.map (fun w -> Protocol.reader_fd w.rd) !live in
            match Unix.select fds [] [] timeout with
            | readable, _, _ ->
              List.iter
                (fun fd ->
                  match
                    List.find_opt (fun w -> Protocol.reader_fd w.rd = fd) !live
                  with
                  | Some w -> handle_readable w
                  | None -> ())
                readable
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          end
        done;
        Array.map
          (function
            | Some o -> o
            | None -> Failed { attempts = 0; reason = "internal: unresolved job" })
          outcomes)
  end
